"""The rollup bench's parity flag must be able to fail."""

from repro.bench.perf import energies_allclose


def test_energies_allclose_accepts_matching_energies():
    raw = [1.25e-9, 3.5e-9, float("nan")]
    assert energies_allclose(raw, [e * (1 + 1e-9) for e in raw])


def test_energies_allclose_flags_relative_error():
    # ~1e-9 energies sit far below numpy's default atol of 1e-8, which
    # would pass any pair; a 1e-3 relative error must flip the flag.
    raw = [1.25e-9, 3.5e-9]
    assert not energies_allclose(raw, [raw[0] * (1 + 1e-3), raw[1]])
