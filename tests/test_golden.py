"""Seeded reports compared byte for byte against the files in tests/golden/.

Each entry of GOLDEN is a file name and the `hmqm` arguments that write it.
A change that is meant to alter a report regenerates the files with
`python tests/test_golden.py` and says why in its commit; any other change
must leave every byte as it is.
"""

import pathlib
import sys

import pytest

from hmqm.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_FORGE = ("forge", "--n", "4", "--q", "100000", "--l", "50", "--trials", "20", "--seed", "1")

GOLDEN = {
    "simulate_ideal.json": ("simulate", "--n", "8", "--q", "100000", "--l", "100",
                            "--trials", "200", "--seed", "7"),
    "simulate_lossy.json": ("simulate", "--n", "8", "--q", "200000", "--l", "100", "--trials", "100",
                            "--beta", "0.05", "--eta", "0.9", "--epsilon", "0.05", "--seed", "11"),
    "forge_honest_noise.json": (*_FORGE, "--strategy", "honest_noise"),
    "forge_register_split.json": (*_FORGE, "--strategy", "register_split"),
    "forge_symmetric_clone.json": (*_FORGE, "--strategy", "symmetric_clone"),
    "forge_mixed_substitution.json": (*_FORGE, "--strategy", "mixed_substitution"),
    "forge_loss_hiding.json": (*_FORGE, "--strategy", "loss_hiding", "--fraction", "0.1"),
    "forge_symmetric_clone.csv": (*_FORGE, "--strategy", "symmetric_clone", "--format", "csv"),
    "plan.json": ("plan", "--n", "8", "--beta", "0.1", "--security", "1e-6"),
    "coherent.csv": ("coherent", "--alpha-sq", "0.2:1.0:5", "--eta", "0.6", "--epsilon", "0.01"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_bytes(tmp_path, name):
    out = tmp_path / name
    assert main([*GOLDEN[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    sys.exit(max(main([*argv, "--out", str(GOLDEN_DIR / name)]) for name, argv in GOLDEN.items()))
