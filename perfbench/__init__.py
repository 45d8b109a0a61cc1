"""The repository benchmark: end-to-end simulator speed and paper accuracy.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload through the public entry points of
``repro`` (the ``scenarios run`` CLI, :class:`~repro.runner.SessionRunner`,
the experiment store and the analysis layer) and prints its metrics.
See ``perfbench/README.md`` for the workloads and every metric.
"""
