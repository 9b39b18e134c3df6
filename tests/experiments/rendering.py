"""Render experiment rows in tests the way the CLI does."""

from repro.experiments.registry import EXPERIMENTS


def render(name, rows, **params):
    """Entry ``name``'s texts of ``rows``, at its defaults overridden by ``params``."""
    entry = EXPERIMENTS[name]
    return entry.render(rows, entry.resolve(params))
