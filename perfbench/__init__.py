"""Benchmark of the torus_hartree scan, simulate and Picard-oracle paths."""
