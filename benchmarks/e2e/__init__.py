"""The repo's end-to-end benchmark: four paper workloads driven through
a process-mode cluster, checked against the in-process backend, with a
second traced pass that names the layer the time went to.

Run ``python -m benchmarks.e2e --help``; see ``README.md`` in this
directory for the metric → layer → workload table.
"""
