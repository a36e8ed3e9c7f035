import numpy as np
import pytest

from becmemory.config import RunConfig


@pytest.fixture
def cfg() -> RunConfig:
    return RunConfig.from_mapping({})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20120731)


def random_physical_stokes(rng, n):
    """Seeded sample of valid Stokes vectors, including partially polarized."""
    s0 = rng.uniform(0.1, 3.0, n)
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    dop = rng.uniform(0.0, 1.0, n)
    vec = direction * (dop * s0)[:, None]
    return np.column_stack([s0, vec])


def read_table(path: str):
    """Parse a CSV table the CLI wrote.

    Returns (metadata, header, rows): the '#' lines without their prefix,
    the column names, and the data rows as lists of strings.
    """
    metadata: list[str] = []
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                metadata.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ValueError(f"no header row found in {path!r}")
    return metadata, header, rows


def column(header: list[str], rows: list[list[str]], name: str,
           convert=float) -> list:
    """Extract one column by name from read_table output."""
    idx = header.index(name)
    return [convert(row[idx]) for row in rows]
