"""Render-path benchmark: the ``drag``, ``animate`` and ``serve``
workloads of an interactive shader editor, end to end and per layer.

Run from the repository root::

    python3 renderbench/run.py --workload drag --seed 1 --seconds 10 --trace 0
"""
