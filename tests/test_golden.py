"""Golden SHA-256 digests of full CLI outputs for small fixed configs.

Rerun equality (acceptance criterion 09) cannot see a change that moves
every number consistently; these digests can.  Every run happens inside
``tmp_path`` with relative data paths, so the ``# config=<hash>`` provenance
line is part of what is pinned.  A change that moves any output byte has
to regenerate these digests and say why.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from conftest import write_config, write_mnist_style_fixture
from sgdstop.cli import EXIT_OK, main
from sgdstop.numerics import RngState

_SWEEP = {
    "d": 6,
    "sigma_grid": [0.1, 0.5],
    "losses": ["logistic", "hinge"],
    "alpha_tilde": 0.1,
    "trials": 2,
    "seed": 7,
}

_COMPARE = {
    "d": 6,
    "sigma": 0.5,
    "loss": "logistic",
    "alpha_tilde": 0.1,
    "trials": 3,
    "eval_samples": 500,
    "stoppers": ["zero_overhead", "zero_overhead_continue", "svs_4", "extra_sample"],
    "seed": 11,
}

_VERIFY = {
    "seed": 3,
    "expected_T": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "trials": 40},
    "hitting_time": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "trials": 30},
    "drift": {"loss": "logistic", "d": 6, "sigma": 0.1, "alpha": 0.1, "n_mc": 4000},
    "angle": {"loss": "logistic", "d": 8, "sigma": 0.3, "alpha": 0.05, "trials": 40},
    "target_delta": {"d": 6, "sigma": 0.8, "alpha": 0.1, "n_theta": 200},
}

# Every section on the hinge loss.  The hitting-time model is in the high-noise
# regime, so its bound and target set read rho_star and c_prime; the drift
# model sits just inside the hinge low-noise regime.
_VERIFY_HINGE = {
    "seed": 9,
    "expected_T": {"loss": "hinge", "d": 6, "sigma": 0.5, "alpha": 0.1, "trials": 30},
    "hitting_time": {"loss": "hinge", "d": 6, "sigma": 2.0, "alpha": 0.05, "trials": 20},
    "drift": {"loss": "hinge", "d": 6, "sigma": 1.2, "alpha": 0.1, "n_mc": 4000},
    "angle": {"loss": "hinge", "d": 8, "sigma": 0.3, "alpha": 0.05, "trials": 30},
    "target_delta": {"loss": "hinge", "d": 6, "sigma": 0.8, "alpha": 0.1, "n_theta": 100},
}


def _write_csv_dataset(path: Path) -> None:
    gen = RngState(13).generator()
    lines = ["x0,x1,x2,label"]
    for _ in range(300):
        y = int(gen.random() < 0.5)
        center = 0.4 if y else -0.4
        v = center + 2.0 * (gen.random(3) - 0.5)
        lines.append(",".join([*(repr(float(x)) for x in v), str(y)]))
    path.write_text("\n".join(lines) + "\n")


def _write_cifar_batches(dirpath: Path) -> dict:
    """Two CIFAR-10 train batches and a test batch.  Classes 3 and 5 each add
    16 to their own 256-pixel band over noise in [0, 160), so they overlap;
    class 9 is filtered out by the binary task."""
    dirpath.mkdir()
    gen = RngState(17).generator()
    paths = []
    for name, n in (("data_batch_1", 90), ("data_batch_2", 90), ("test_batch", 60)):
        labels = gen.choice([3, 5, 9], size=n, p=[0.45, 0.45, 0.1]).astype(np.uint8)
        pixels = gen.integers(0, 160, size=(n, 3072), dtype=np.uint8)
        pixels[labels == 3, :256] += 16
        pixels[labels == 5, 256:512] += 16
        path = dirpath / f"{name}.bin"
        path.write_bytes(np.column_stack([labels, pixels]).tobytes())
        paths.append(str(path))
    return {"train_batches": paths[:2], "test_batch": paths[2]}


def _cifar_config() -> dict:
    return {
        "dataset": "cifar10",
        **_write_cifar_batches(Path("cifar")),
        "class_a": 3,
        "class_b": 5,
        "alpha_tilde": 2.0,
        "centering_samples": 40,
        "epochs": 4,
        "trials": 2,
        "stoppers": ["zero_overhead", "svs_4", "zero_overhead_continue"],
        "seed": 4,
    }


def _mnist_config() -> dict:
    return {
        "dataset": "mnist",
        **write_mnist_style_fixture(Path("data")),
        "class_a": 1,
        "class_b": 8,
        "alpha_tilde": 0.005,
        "trials": 2,
        "stoppers": ["zero_overhead", "extra_sample", "svs_8", "zero_overhead_continue"],
        "seed": 5,
    }


def _csv_config() -> dict:
    _write_csv_dataset(Path("points.csv"))
    return {
        "dataset": "csv",
        "path": "points.csv",
        "class_a": 0,
        "class_b": 1,
        "alpha_tilde": 0.1,
        "test_fraction": 0.25,
        "trials": 2,
        "stoppers": ["zero_overhead", "svs_4", "zero_overhead_continue"],
        "seed": 2,
    }


CASES = {
    "sweep_gaussian": ("sweep-sigma", lambda: _SWEEP),
    "sweep_t2": (
        "sweep-sigma",
        lambda: {**_SWEEP, "source": "t2", "beta": 0.3, "sigma_grid": [0.5]},
    ),
    # 128-row mixture chunks at d 128 are numerics.SPLIT_PAIRS pairs each
    "sweep_gaussian_split": (
        "sweep-sigma",
        lambda: {**_SWEEP, "d": 128, "sigma_grid": [0.5], "trials": 1},
    ),
    "compare_gaussian": ("compare-stoppers", lambda: _COMPARE),
    # 256-row mixture chunks at d 100 are 12,800 pairs each, over numerics.SPLIT_PAIRS
    "compare_gaussian_split": ("compare-stoppers", lambda: {**_COMPARE, "d": 100, "trials": 1}),
    # centering reads more rows than one 256-row sampler block holds
    "compare_t2_centering_300": (
        "compare-stoppers",
        lambda: {**_COMPARE, "source": "t2", "beta": 0.3, "centering_samples": 300},
    ),
    # centering ends exactly at a sampler block's end
    "compare_gaussian_centering_256": (
        "compare-stoppers",
        lambda: {**_COMPARE, "centering_samples": 256},
    ),
    "verify": ("verify-bounds", lambda: _VERIFY),
    "verify_hinge": ("verify-bounds", lambda: _VERIFY_HINGE),
    # the drift draws 9,000 pairs per probe, over numerics.SPLIT_PAIRS
    "verify_drift_split": (
        "verify-bounds",
        lambda: {"seed": 3, "drift": {**_VERIFY["drift"], "n_mc": 3000}},
    ),
    # at odd d the probe and its lift are 3 + 1 Box-Muller pairs, so 600
    # probes are draw groups of 256, 256 and 88 (numerics.GROUP_PAIRS = 1,024)
    "verify_target_delta_odd": (
        "verify-bounds",
        lambda: {"seed": 13, "target_delta": {"d": 5, "sigma": 0.8, "alpha": 0.1, "n_theta": 600}},
    ),
    "real_mnist_fixture": ("run-real", _mnist_config),
    "real_mnist_unscaled": ("run-real", lambda: {**_mnist_config(), "scale_pixels": False}),
    "real_cifar10": ("run-real", _cifar_config),
    "real_csv": ("run-real", _csv_config),
    # centering reads the whole 225-row training set, one epoch's only chunk
    "real_csv_centering_epoch": (
        "run-real",
        lambda: {**_csv_config(), "centering_samples": 225, "epochs": 2},
    ),
}

DIGESTS = {
    "compare_gaussian": "c7b51f24093e9ef10fa1665422b164e96b5b32d929b4e73cc5ef6aa1c4365271",
    "compare_gaussian_split": "0871cc4e94ee8f90e7c83d02b2f6377b73194891c639b540d1586a9b38e7211a",
    "compare_gaussian_centering_256": "c03f60b81bbd55764f6318d4fb1f075d8e81f194fffc2d71fee3867005319a2e",
    "compare_t2_centering_300": "f89fbf0105c98257559ca846aa0a176e5173c2e2f5a19a80eea8067eb50aab32",
    "real_csv": "80fe3e82f04e99fae7d776e5cf5cf371ee1e3c9b4c6662e92e01b874077d40f4",
    "real_cifar10": "fdf7abed8b37ca2f3215ae840083e511b3d471dcab451431fc8dfd346e3788a7",
    "real_csv_centering_epoch": "c754343413f48b1bb156fa598dda9be4784e6cdb50ca470d22bc3c84abeecc49",
    "real_mnist_fixture": "5705996ff2a38d72d8b2f9f6fc392ca6914937cd1079189fd09ae0e2d1d37b74",
    "real_mnist_unscaled": "ef1f4476a3019b77f9c039405d02d81079e5f16bf018738da93ed02b179261dd",
    "sweep_gaussian": "3938bff6460a4b4e094eaf0646538551983da6e9f798d596dee858bbb5e71619",
    "sweep_gaussian_split": "ce5be8e34fa8fe9bcaca9a97abd7a2293cb42bb4fadc4ec79c2a598fe65a1c22",
    "sweep_t2": "fbba1958688088b0f8168ee6941b1c934c1e799fff18adc2fc3d010659a2efb5",
    "verify": "bc0ef49ba5c620a23c2afd46721285da7b8994e469d5b3c732df602eb2cf6236",
    "verify_drift_split": "ce55172d99dd90fd7a5ea0f36fd957d211abc808abac475b33dec4191d5010a0",
    "verify_hinge": "b3bebf3f96ee2aa51d69f3744177bd140a77f4a74fbeb8127471ae4e18ffa2f8",
    "verify_target_delta_odd": "ee0cf10ca08b006b06d5a9d173316c50ef19fc436570f2825ce74d00bf12b409",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    command, make_config = CASES[name]
    out = "out.json" if command == "verify-bounds" else "out.csv"
    cfg = write_config(Path("config.json"), {**make_config(), "out": out})
    assert main([command, "--config", cfg]) == EXIT_OK
    assert hashlib.sha256(Path(out).read_bytes()).hexdigest() == DIGESTS[name]
