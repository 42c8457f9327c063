import json
import random

import pytest

from cableopt import CableSpec, PulParameters, VoltageScaling, optimizer

# Reference 220 kV class 1000 mm2 submarine cable (50 Hz data), per-unit
# voltage base 240 kV (the system's maximum operating voltage).
REF_PUL = PulParameters(r=0.048, l=0.37e-3, c=0.18e-6, g=0.0)


def ref_cable(length_km=200.0) -> CableSpec:
    return CableSpec(pul=REF_PUL, length_km=length_km, nominal_voltage=240e3,
                     rated_current=1055.0, frequency=50.0)


@pytest.fixture
def cable200() -> CableSpec:
    return ref_cable(200.0)


@pytest.fixture
def solve_calls(monkeypatch) -> list:
    """One entry per call of the candidate solve optimizer._solve."""
    calls = []
    solve = optimizer._solve
    monkeypatch.setattr(optimizer, "_solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


def random_cable(rng: random.Random) -> CableSpec:
    return CableSpec(
        pul=PulParameters(
            r=rng.uniform(0.01, 0.10),
            l=rng.uniform(0.20e-3, 0.50e-3),
            c=rng.uniform(0.12e-6, 0.25e-6),
            g=rng.choice([0.0, rng.uniform(0.0, 5e-8)]),
        ),
        length_km=rng.uniform(40.0, 350.0),
        nominal_voltage=rng.uniform(110e3, 420e3),
        rated_current=rng.uniform(600.0, 1600.0),
        frequency=50.0,
    )


def random_scaling(rng: random.Random) -> VoltageScaling:
    return VoltageScaling.from_degrees(rng.uniform(1.0, 1.1), rng.uniform(0.5, 10.0))


def with_config(argv: list, tmp_path) -> list[str]:
    """argv, where a trailing dict is a study configuration: written to tmp_path, passed as --config."""
    if not argv or not isinstance(argv[-1], dict):
        return argv
    path = tmp_path / "study.json"
    path.write_text(json.dumps(argv[-1]), encoding="utf-8")
    return argv[:-1] + ["--config", str(path)]
