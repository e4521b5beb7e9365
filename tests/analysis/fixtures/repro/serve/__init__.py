"""Fixture package mirroring ``repro.serve`` (RL020 cases)."""
