import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hmqm import bounds
from hmqm.coherent import (
    BlockSource,
    coherent_pipeline,
    effective_adversary_error,
    fold_source_loss,
    photon_statistics,
)
from reference import (
    BitString,
    hidden_matching_state,
    single_photon_block_amplitudes,
    single_photon_state_equivalence,
)


def source(alpha_sq, n=8):
    return BlockSource(alpha=math.sqrt(alpha_sq), n=n)


def test_photon_statistics_anchor():
    stats = photon_statistics(source(0.25))
    assert stats.p0 == 0.7788007830714049
    assert stats.p1 == 0.19470019576785122
    assert stats.p2plus == 0.026499021160743916
    assert round(stats.p0, 4) == 0.7788
    assert round(stats.p1, 4) == 0.1947
    assert round(stats.p2plus, 4) == 0.0265


def test_photon_statistics_poisson_law():
    for alpha_sq in np.logspace(-4, 1, 25):
        stats = photon_statistics(source(alpha_sq))
        assert abs(stats.p0 - math.exp(-alpha_sq)) < 1e-15
        assert abs(stats.p1 - alpha_sq * math.exp(-alpha_sq)) < 1e-15
        assert abs(stats.p0 + stats.p1 + stats.p2plus - 1.0) < 1e-12
        assert min(stats.p0, stats.p1, stats.p2plus) >= 0.0


def p2plus_reference(mu: float) -> Decimal:
    """1 - e^-mu (1 + mu) for the float mu, in 60-digit decimal arithmetic:
    the cancellation at mu = 1e-12 leaves some 35 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(mu)
        return 1 - (-exact).exp() * (1 + exact)


def test_multiphoton_probability_is_accurate_at_every_brightness():
    # 1 - p0 - p1 cancels to rounding noise, often below zero, at small
    # |alpha|^2, and a negative p2plus would raise the adversary's floor.
    for alpha_sq in np.logspace(-12, 1, 2601):
        block = source(alpha_sq)
        p2plus = photon_statistics(block).p2plus
        reference = p2plus_reference(block.mean_photons)
        assert p2plus >= 0.0, alpha_sq
        assert abs(Decimal(p2plus) - reference) <= Decimal("1e-14") * reference, alpha_sq
        for base_error in (bounds.e_min(8), 0.5):
            assert effective_adversary_error(base_error, block) <= base_error, alpha_sq


def test_multiphoton_fraction_small_mu_limit():
    mu = 1e-6
    stats = photon_statistics(source(mu))
    assert stats.p2plus / stats.p1 == pytest.approx(mu / 2.0, rel=1e-3)


def test_effective_adversary_error_anchor():
    got = effective_adversary_error(0.2, source(0.25))
    assert got == 0.17604058320938995
    assert round(got, 5) == 0.17604


def test_effective_adversary_error_monotone_in_brightness():
    values = [effective_adversary_error(0.2, source(a)) for a in (1.0, 0.5, 0.25, 0.1)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_effective_adversary_error_dim_source_limit():
    assert abs(effective_adversary_error(0.2, source(1e-8)) - 0.2) < 1e-8


def test_effective_adversary_error_guards():
    with pytest.raises(ValueError):
        effective_adversary_error(-0.1, source(0.25))
    with pytest.raises(ValueError):
        effective_adversary_error(0.6, source(0.25))


def test_fold_source_loss():
    assert fold_source_loss(0.6, source(0.25)) == 0.13271953015715707
    assert fold_source_loss(0.6, source(50.0)) == pytest.approx(0.6, abs=1e-12)
    for alpha_sq in (0.01, 0.1, 1.0, 10.0):
        assert fold_source_loss(0.6, source(alpha_sq)) <= 0.6
    with pytest.raises(ValueError):
        fold_source_loss(0.0, source(0.25))
    with pytest.raises(ValueError):
        fold_source_loss(1.5, source(0.25))


def test_single_photon_equivalence_exhaustive_n4():
    for k in range(16):
        bits = tuple((k >> i) & 1 for i in range(4))
        assert single_photon_state_equivalence(BitString(bits))


def test_single_photon_equivalence_random_n8():
    rng = np.random.default_rng(45)
    for _ in range(20):
        x = BitString.random(8, rng)
        assert single_photon_state_equivalence(x)
        amps = single_photon_block_amplitudes(x)
        assert np.allclose(amps, hidden_matching_state(x).amplitudes, atol=1e-15)


def test_single_photon_equivalence_detects_a_flipped_sign():
    x = BitString((0, 1, 1, 0, 1, 0, 0, 1))
    amps = single_photon_block_amplitudes(x)
    amps[2] *= -1.0
    assert not single_photon_state_equivalence(x, block_amplitudes=amps)
    assert single_photon_state_equivalence(x, block_amplitudes=hidden_matching_state(x).amplitudes.real)


def test_pipeline_feasible_band():
    points = [coherent_pipeline(a, 8, 0.6, 0.001) for a in np.linspace(0.1, 1.0, 10)]
    for p in points:
        assert p.feasible
        assert p.effective_error > 0.0
        assert p.effective_eta <= 0.6
    errors = [p.effective_error for p in points]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_pipeline_infeasible_point():
    point = coherent_pipeline(0.1, 8, 0.6, 0.01)
    assert point.adjusted_floor == -0.10293572105225596
    assert not point.feasible
    assert point.effective_error == point.adjusted_floor


def test_pipeline_undefined_correction_is_infeasible_not_an_error():
    # At alpha^2 = 0.05, eta_eff = 0.0293 < 3 epsilon: the loss correction
    # is undefined, and the point comes back infeasible with no floors.
    point = coherent_pipeline(0.05, 8, 0.6, 0.01)
    assert point.effective_eta == 0.6 * (1.0 - math.exp(-0.05))
    assert point.adjusted_floor is None and point.effective_error is None
    assert not point.feasible
    with pytest.raises(ValueError):
        coherent_pipeline(0.5, 8, 0.6, -0.01)
    with pytest.raises(ValueError, match="epsilon"):  # not merely infeasible
        coherent_pipeline(0.5, 8, 0.6, math.nan)


def test_pipeline_zero_epsilon_keeps_lossless_floor():
    point = coherent_pipeline(0.25, 8, 0.6, 0.0)
    assert point.adjusted_floor == bounds.e_min(8)
    assert point.effective_error == effective_adversary_error(bounds.e_min(8), source(0.25))
    assert point.feasible


def test_block_source_guards():
    with pytest.raises(ValueError):
        BlockSource(alpha=0.0, n=8)
    with pytest.raises(ValueError):
        BlockSource(alpha=0.5, n=7)
    for alpha in (math.inf, math.nan, complex(0.5, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            BlockSource(alpha=alpha, n=8)
    assert BlockSource(alpha=0.5, n=8).mean_photons == 0.25
