"""Operational tools: the offline index verifier, the stats renderer,
the lint and race-detector CLIs.

The package imports nothing, so ``python -m repro.tools.X`` loads each
tool once.  Import from the tool module: ``from repro.tools.fsck import
fsck_tree``.
"""
