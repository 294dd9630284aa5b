"""Helpers for the benchmark harness."""


def show(title: str, body: str) -> None:
    """Print a rendered experiment table under a title banner."""
    print(f"\n=== {title} ===")
    print(body)
