"""Fixture: violates the ``api-surface`` rule (never imported)."""

__all__ = ["exists", "ghost", "exists"]


def exists():
    return True
