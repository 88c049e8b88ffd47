"""Decentralized multi-agent goal capture on grids via per-agent tree search."""
