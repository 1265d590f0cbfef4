"""End-to-end benchmark of the ``repro`` CLI (see ``perfbench/README.md``).

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
