"""Acceptance gate: one test per release criterion, run in order.

Each test prints one `criterion N PASS: ...` line on success (visible under
`pytest -s`).  Statistical checks use fixed seeds, so reruns are exact.
"""

import json
import math
import re
import signal
import subprocess
import sys

import numpy as np
import pytest

from helpers import block_spectrum, brute_pair_average, brute_q_matrix, random_density
from hmqm import bounds
from hmqm.adversary import builtin_strategy, loss_hiding_weight_check, run_forging_experiment
from hmqm.coherent import (
    BlockSource,
    photon_statistics,
    single_photon_block_amplitudes,
    single_photon_state_equivalence,
)
from hmqm.matchings import build_disjoint_set
from hmqm.protocol import (
    HonestChannel,
    Verdict,
    VerdictParameters,
    bank_mint,
    holder_verify,
    honest_fail_bound,
    plan_parameters,
    run_honest_experiment,
)
from hmqm.qrg import (
    BitString,
    averaged_error_probability,
    averaged_povm,
    error_probability_given_matching,
    hidden_matching_state,
)
from hmqm.service import BankClient, BankService, client_verify


def report(num: int, message: str) -> None:
    print(f"criterion {num} PASS: {message}")


def test_criterion_01_fidelity_bound_law():
    worst = 0.0
    for n in (4, 6, 8, 10, 12, 14):
        got = bounds.fidelity_bound(n)
        worst = max(worst, abs(got - (0.5 + 1.0 / n)))
        assert abs(got - (0.5 + 1.0 / n)) <= 1e-8, f"n={n}: {got}"
    report(1, f"n*norm(Q) = 1/2 + 1/n for n in 4..14, worst deviation {worst:.2e}")


def test_criterion_02_closed_form_oracles():
    worst = 0.0
    for n in (4, 6, 8):
        dev = float(np.max(np.abs(bounds.pair_average(n) - brute_pair_average(n))))
        worst = max(worst, dev)
        assert dev <= 1e-12, f"pair_average n={n}: {dev}"
    q_dev = 0.0
    for n in (4, 6, 8):
        spectrum = block_spectrum(bounds.build_q_matrix(n))
        q_dev = max(q_dev, float(np.max(np.abs(spectrum - np.linalg.eigvalsh(brute_q_matrix(n))))))
    assert q_dev <= 1e-12
    report(2, f"ensemble averages match 2^n sums, worst {max(worst, q_dev):.2e}")


def test_criterion_03_tolerance_table():
    assert abs(bounds.e_min(4) - 0.1663) <= 1e-4
    assert abs(bounds.e_min(14) - 0.2303) <= 1e-4
    assert bounds.e_max(4) == 0.2
    assert abs(bounds.e_max(14) - 0.2333) <= 1e-4
    values = [bounds.e_max(n) for n in range(4, 64, 2)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 0.25 for v in values)
    assert 0.25 - values[-1] < 0.25 - values[0]
    # Planner inversion documented alongside the table: delta near 0.0196
    # forces a sample size near 18,000.
    plan = plan_parameters(8, bounds.e_min(8) - 2 * 0.0196, 1e-6)
    assert abs(plan.delta - 0.0196) < 1e-12
    assert abs(plan.l - 18_000) <= 100
    report(3, f"e_min/e_max anchors hold, e_max increasing toward 0.25, plan l={plan.l} at delta=0.0196")


def test_criterion_04_cloner_ground_truth():
    rng = np.random.default_rng(0xACCE)
    worst_red = 0.0
    worst_err = 0.0
    for n in range(4, 16, 2):
        v = bounds.clone_shrink_factor(n)
        mset = build_disjoint_set(n)
        eye = np.eye(n) / n
        for _ in range(50):
            x = BitString.random(n, rng)
            rho = hidden_matching_state(x).to_density()
            pair = bounds.symmetric_clone(rho)
            expected = v * rho.mat + (1.0 - v) * eye
            dev = float(np.max(np.abs(pair.first.mat - expected)))
            dev = max(dev, float(np.max(np.abs(pair.second.mat - expected))))
            worst_red = max(worst_red, dev)
            assert dev <= 1e-10, f"n={n}: reduction deviates by {dev}"
            err = averaged_error_probability(pair.first, x, mset)
            worst_err = max(worst_err, abs(err - bounds.e_max(n)))
            assert abs(err - bounds.e_max(n)) <= 1e-10
    report(4, f"300 cloned states match v*phi+(1-v)/n (worst {worst_red:.2e}), error = e_max (worst {worst_err:.2e})")


def test_criterion_05_povm_identity():
    rng = np.random.default_rng(0x9071)
    worst = 0.0
    for n in (4, 6, 8):
        mset = build_disjoint_set(n)
        for _ in range(50):
            rho = random_density(n, rng)
            x = BitString.random(n, rng)
            povm = averaged_povm(x, mset)
            traced = float(np.trace(povm.incorrect @ rho.mat).real)
            mean_err = float(np.mean([
                error_probability_given_matching(rho, x, alpha, mset) for alpha in range(1, n)
            ]))
            worst = max(worst, abs(traced - mean_err))
            assert abs(traced - mean_err) <= 1e-12
    report(5, f"Tr[incorrect*rho] equals matching-averaged error on 150 random states, worst {worst:.2e}")


def test_criterion_06_completeness_and_concentration():
    rng = np.random.default_rng(0xC0C0)
    noiseless = run_honest_experiment(8, 100_000, 100, 0.0, 1000, rng)
    assert noiseless.valid == 1000, f"{noiseless.invalid} rejections in the noiseless run"

    rng = np.random.default_rng(0xBEA7)
    noisy = run_honest_experiment(8, 2_000_000, 2000, 0.1, 1000, rng)
    params = VerdictParameters.from_noise(8, 0.1)
    bound = honest_fail_bound(2000, params.delta)
    sigma = math.sqrt(bound * (1 - bound) / 1000)
    reject_freq = noisy.invalid / 1000
    assert noisy.aborted == 0
    assert reject_freq <= bound + 3 * sigma, f"reject {reject_freq} vs {bound + 3 * sigma}"
    report(6, f"10^3 noiseless runs all Valid; beta=0.1 reject rate {reject_freq} <= {bound + 3 * sigma:.3e}")


def test_criterion_07_forging_failure():
    rng = np.random.default_rng(0xF063)
    params = VerdictParameters.from_noise(4, 0.1)
    outcome = run_forging_experiment(
        4, 4_000_000, 2000, builtin_strategy("symmetric_clone"), 1000, params, rng
    )
    assert outcome.both_accept_rate == 0.0, f"double spend accepted {outcome.both_accept_rate}"
    target = bounds.e_max(4)
    for means in (outcome.observed_error1, outcome.observed_error2):
        mean = float(np.nanmean(means))
        sem = float(np.nanstd(means, ddof=1)) / math.sqrt(np.sum(~np.isnan(means)))
        assert abs(mean - target) <= 3 * sem, f"white error {mean} vs {target} +- {3 * sem}"
    report(7, f"clone double-spend never accepted twice in 10^3 trials; white error within 3 SEM of {target}")


def test_criterion_08_lossy_variant():
    eta, epsilon = 0.6, 0.05
    rng = np.random.default_rng(0x1055)
    honest = run_honest_experiment(8, 2_000_000, 2000, 0.1, 1000, rng, eta=eta, epsilon=epsilon)
    abort_bound = math.exp(-2.0 * 2000 * epsilon**2)
    sigma = math.sqrt(abort_bound * (1 - abort_bound) / 1000)
    abort_freq = honest.aborted / 1000
    assert abort_freq <= abort_bound + 3 * sigma, f"abort {abort_freq} vs {abort_bound + 3 * sigma}"

    q, l, trials = 2_000_000, 2000, 10_000
    gamma = 1.0 - 3.0 * epsilon / eta
    rng = np.random.default_rng(0x1056)
    hide_abort = loss_hiding_weight_check(
        q, int(gamma * q), l, VerdictParameters.from_noise(8, 0.1, eta, epsilon), trials, rng)
    no_abort_bound = math.exp(-2.0 * (epsilon**2 / eta**2) * l) + math.exp(-2.0 * l * epsilon**2)
    sigma = math.sqrt(no_abort_bound * (1 - no_abort_bound) / trials)
    no_abort_freq = 1.0 - hide_abort
    assert no_abort_freq <= no_abort_bound + 3 * sigma, f"{no_abort_freq} vs {no_abort_bound + 3 * sigma}"
    report(8, f"honest abort rate {abort_freq} <= {abort_bound + 3 * sigma:.3e}; "
              f"loss hiding at weight gamma*q proceeds with rate {no_abort_freq} <= {no_abort_bound + 3 * sigma:.3e}")


def test_criterion_09_coherent_statistics():
    worst = 0.0
    for alpha_sq in np.logspace(-4, 1, 60):
        stats = photon_statistics(BlockSource(alpha=math.sqrt(alpha_sq), n=8))
        mu = alpha_sq
        worst = max(worst, abs(stats.p0 - math.exp(-mu)))
        worst = max(worst, abs(stats.p1 - mu * math.exp(-mu)))
        worst = max(worst, abs(stats.p0 + stats.p1 + stats.p2plus - 1.0))
        assert worst <= 1e-12
        assert min(stats.p0, stats.p1, stats.p2plus) >= 0.0

    rng = np.random.default_rng(0xC04E)
    worst_amp = 0.0
    for k in range(16):
        x = BitString(tuple((k >> i) & 1 for i in range(4)))
        assert single_photon_state_equivalence(x)
        dev = float(np.max(np.abs(
            single_photon_block_amplitudes(x) - hidden_matching_state(x).amplitudes
        )))
        worst_amp = max(worst_amp, dev)
    for n in (6, 8):
        for _ in range(20):
            x = BitString.random(n, rng)
            assert single_photon_state_equivalence(x)
            dev = float(np.max(np.abs(
                single_photon_block_amplitudes(x) - hidden_matching_state(x).amplitudes
            )))
            worst_amp = max(worst_amp, dev)
    assert worst_amp <= 1e-14
    report(9, f"Poisson statistics within {worst:.2e}; one-photon blocks match ideal states within {worst_amp:.2e}")


def test_criterion_10_wire_equivalence_and_durability(tmp_path):
    # Part 1: 100 seeded wire runs, each bit-identical to its in-process twin.
    svc = BankService(journal_path=str(tmp_path / "wire.ndjson"))
    svc.start()
    try:
        params = VerdictParameters.from_noise(8, 0.0)
        channel = HonestChannel(0.0)
        with BankClient(*svc.address) as client:
            for k in range(100):
                local_coin, local_db = bank_mint(8, 20_000, 20, np.random.default_rng(1000 + k))
                wire_coin = client.mint(8, 20_000, 20, seed=1000 + k)
                assert wire_coin.coin_id == local_coin.coin_id
                local = holder_verify(local_coin, local_db, params, channel,
                                      np.random.default_rng(2000 + k))
                remote = client_verify(svc.address, wire_coin, params, channel,
                                       np.random.default_rng(2000 + k))
                assert remote.transcript.to_json() == local.transcript.to_json()
                assert remote.check == local.check
    finally:
        svc.stop()

    # Part 2: SIGKILL the serving process between checks; the journal must
    # keep the spend counter, so Valid verdicts never exceed T.
    journal = tmp_path / "durable.ndjson"

    def start_server():
        proc = subprocess.Popen(
            [sys.executable, "-m", "hmqm.cli", "serve", "--listen", "127.0.0.1:0",
             "--data", str(journal)],
            stderr=subprocess.PIPE, text=True,
        )
        line = proc.stderr.readline()
        match = re.search(r"serving on ([0-9.]+):(\d+)", line)
        assert match, f"unexpected serve banner: {line!r}"
        return proc, (match.group(1), int(match.group(2)))

    params = VerdictParameters.from_noise(8, 0.0)
    channel = HonestChannel(0.0)
    valid_count = 0

    proc, address = start_server()
    try:
        with BankClient(*address) as client:
            coin = client.mint(8, 40_000, 20, seed=77)
        assert coin.T == 2
        first = client_verify(address, coin, params, channel, np.random.default_rng(1))
        assert first.verdict is Verdict.VALID and first.check.s == 1
        valid_count += 1
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stderr.close()

    proc, address = start_server()
    try:
        second = client_verify(address, coin, params, channel, np.random.default_rng(2))
        assert second.verdict is Verdict.VALID and second.check.s == 2
        valid_count += 1
        third = client_verify(address, coin, params, channel, np.random.default_rng(3))
        assert third.verdict is Verdict.INVALID
        assert third.check.code == "coin_exhausted"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stderr.close()

    assert valid_count == coin.T == 2
    report(10, "100 wire runs bit-identical to in-process; kill-restart kept s, Valid verdicts == T == 2")
