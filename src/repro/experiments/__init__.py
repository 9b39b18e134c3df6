"""Experiment drivers: one per table/figure of the paper's evaluation."""
