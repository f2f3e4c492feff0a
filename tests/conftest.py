import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fejercert import load_instance, ratio_bounds, ratio_parameter
from fejercert.mixer import external_envelope

settings.register_profile(
    "repro",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("repro")


def random_instance(rng, n=None, m=None, emax=8, cap=4096):
    """Seeded random instance with integer energies in [0, emax]."""
    n = int(rng.integers(2, 4)) if n is None else n
    m = int(rng.integers(2, 4)) if m is None else m
    energy = rng.integers(0, emax + 1, size=n**m)
    return load_instance(
        {"n": n, "m": m, "energy": [int(e) for e in energy]}, cap=cap
    )


def shape_document(n, m, seed=601):
    """A seeded instance document shaped as the benchmark's: 8^4 with a dense
    energy table, the rest with an assignment cost matrix (costs 0..9)."""
    rng = np.random.default_rng([seed, n, m])
    if (n, m) == (8, 4):
        return {"n": n, "m": m, "energy": rng.integers(0, 40, size=n**m).tolist()}
    return {"n": n, "m": m,
            "generator": {"kind": "assignment", "cost": rng.integers(0, 10, (m, n)).tolist()}}


def forbid_integer_tables(monkeypatch, size):
    """Make numpy's array constructors fail on an integer array of ``size`` or
    more entries, the way a dense penalty table over [n]^m is made; boolean
    masks (np.unique and np.isin make them) and float arrays pass."""

    def guarded(make):
        def constructor(*args, **kwargs):
            array = make(*args, **kwargs)
            if array.size >= size and array.dtype.kind in "iu":
                raise AssertionError(f"built an integer table of {array.size} entries")
            return array
        return constructor

    for name in ("zeros", "ones", "full", "empty"):
        for variant in (name, f"{name}_like"):
            monkeypatch.setattr(np, variant, guarded(getattr(np, variant)))


def random_envelope(rng, size):
    """Strictly positive random distribution (Dirichlet weights)."""
    return external_envelope(rng.dirichlet(np.ones(size)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def certified_bound(p, c_beta, delta):
    """The success bound as ``certify`` and ``plan`` report it (``q0_bound``)
    and as ``depth_for_target`` checks it."""
    return ratio_bounds(ratio_parameter(p, delta, c_beta), c_beta).tight


def averaged_bound(p, c_beta, mbar):
    """The averaged success bound as ``rl`` reports it: the ratio form at
    x = (p+1) C / Mbar."""
    return ratio_bounds((p + 1) * c_beta / mbar, c_beta).tight


def level_mass(env, inst):
    """An envelope's mass on each energy level of ``inst.levels``, summed
    through the level index as ``certify --envelope`` sums it, and each
    string's level."""
    index = inst.levels.index(inst.energy)
    return np.bincount(index.of_string, weights=env.probs), index.of_string
