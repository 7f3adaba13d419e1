"""Golden SHA-256 digests of full CLI outputs for small fixed configs.

Rerun equality (acceptance criterion 09) cannot see a change that moves
every number consistently; these digests can.  Every run happens inside
``tmp_path`` with relative data paths, so the ``# config=<hash>`` provenance
line is part of what is pinned.  A change that moves any output byte has
to regenerate these digests and say why.

A report can hide a change inside it: the drift check's margins are lost in
a mean of values near 500**2, and a last-bit change in theta rarely moves a
printed digit.  So each config also has a ``<name>_internals`` digest of what
the layers hand each other on the same run, seen by spies that change
nothing: every run result where cli and verify bind ``run`` (theta's bytes,
its iterations and stop reason), the margins the drift check hands to
``factor_array``, the offsets that ``accuracy_on_set`` receives and the
target_delta probes that ``termination_probability`` receives, in call order.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import sgdstop.cli as cli
import sgdstop.verify as verify
from conftest import idx_bytes, write_config, write_mnist_style_fixture
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


def _write_overlapping_idx(dirpath: Path) -> dict:
    """MNIST-shaped IDX files whose classes 1 and 8 overlap: each adds 8 to
    its own 128-pixel band over noise in [0, 160); class 3 is filtered out
    by the binary task.  The test split keeps 230 rows of classes 1 and 8."""
    dirpath.mkdir()
    gen = RngState(19).generator()
    paths = {}
    for split, n in (("train", 300), ("test", 250)):
        labels = gen.choice([1, 8, 3], size=n, p=[0.45, 0.45, 0.1]).astype(np.uint8)
        pixels = gen.integers(0, 160, size=(n, 784), dtype=np.uint8)
        pixels[labels == 1, :128] += 8
        pixels[labels == 8, 128:256] += 8
        for kind, magic, dims, payload in (
            ("images", 0x803, (n, 28, 28), pixels), ("labels", 0x801, (n,), labels)
        ):
            path = dirpath / f"{split}-{kind}"
            path.write_bytes(idx_bytes(magic, dims, payload.tobytes()))
            paths[f"{split}_{kind}"] = str(path)
    return paths


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
    # the eval set is read as 128-row mixture chunks (d 128), and 1,031 rows
    # end on a partial chunk of 7 rows, 3 past a multiple of 4
    "compare_eval_pieces": (
        "compare-stoppers",
        lambda: {**_COMPARE, "d": 128, "eval_samples": 1031, "trials": 1},
    ),
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
    # at d 7 a probe's 139,993 normals are read in pieces of 9,360, 9,360
    # and 1,279 rows (data.FOLD_ELEMENTS doubles at most); the second run
    # of uniforms starts 1 past a multiple of 4
    "verify_drift_pieces": (
        "verify-bounds",
        lambda: {"seed": 3, "drift": {"loss": "hinge", "d": 7, "sigma": 1.2, "alpha": 0.1, "n_mc": 19999}},
    ),
    # at d 8 a probe's 17,000 samples are read in pieces of 8,192, 8,192 and
    # 616 rows; gemv rounds a 2-row tail there unlike the rows it takes in
    # fours (at d 7 it does not), so pieces cut 2 rows past a multiple of 4
    # move the margins of the internals digest, though not the report
    "verify_drift_pieces_d8": (
        "verify-bounds",
        lambda: {"seed": 3, "drift": {"loss": "hinge", "d": 8, "sigma": 1.2, "alpha": 0.1, "n_mc": 17000}},
    ),
    # at odd d the probe and its lift are 3 + 1 Box-Muller pairs, so 600
    # probes are draw groups of 256, 256 and 88 (numerics.GROUP_PAIRS = 1,024)
    "verify_target_delta_odd": (
        "verify-bounds",
        lambda: {"seed": 13, "target_delta": {"d": 5, "sigma": 0.8, "alpha": 0.1, "n_theta": 600}},
    ),
    "real_mnist_fixture": ("run-real", _mnist_config),
    "real_mnist_unscaled": ("run-real", lambda: {**_mnist_config(), "scale_pixels": False}),
    # 230 test rows of 784 pixels, scored in runs of 80, 80 and 70 rows; the
    # last ends 2 rows past a multiple of 4
    "real_test_pieces": (
        "run-real",
        lambda: {**_mnist_config(), **_write_overlapping_idx(Path("overlap")), "epochs": 4},
    ),
    "real_cifar10": ("run-real", _cifar_config),
    "real_csv": ("run-real", _csv_config),
    # centering reads the whole 225-row training set, one epoch's only chunk
    "real_csv_centering_epoch": (
        "run-real",
        lambda: {**_csv_config(), "centering_samples": 225, "epochs": 2},
    ),
}

DIGESTS = {
    "compare_eval_pieces": "d27a514b3947aa0811808292de168e6431b2fc5fa85e62998f892cedd6f4876f",
    "compare_gaussian": "c7b51f24093e9ef10fa1665422b164e96b5b32d929b4e73cc5ef6aa1c4365271",
    "compare_gaussian_split": "0871cc4e94ee8f90e7c83d02b2f6377b73194891c639b540d1586a9b38e7211a",
    "compare_gaussian_centering_256": "c03f60b81bbd55764f6318d4fb1f075d8e81f194fffc2d71fee3867005319a2e",
    "compare_t2_centering_300": "f89fbf0105c98257559ca846aa0a176e5173c2e2f5a19a80eea8067eb50aab32",
    "real_csv": "80fe3e82f04e99fae7d776e5cf5cf371ee1e3c9b4c6662e92e01b874077d40f4",
    "real_cifar10": "fdf7abed8b37ca2f3215ae840083e511b3d471dcab451431fc8dfd346e3788a7",
    "real_csv_centering_epoch": "c754343413f48b1bb156fa598dda9be4784e6cdb50ca470d22bc3c84abeecc49",
    "real_mnist_fixture": "5705996ff2a38d72d8b2f9f6fc392ca6914937cd1079189fd09ae0e2d1d37b74",
    "real_test_pieces": "807ce7a7998e54f5092503b928656782c02a8096193cee351a022ec7df19798a",
    "real_mnist_unscaled": "ef1f4476a3019b77f9c039405d02d81079e5f16bf018738da93ed02b179261dd",
    "sweep_gaussian": "3938bff6460a4b4e094eaf0646538551983da6e9f798d596dee858bbb5e71619",
    "sweep_gaussian_split": "ce5be8e34fa8fe9bcaca9a97abd7a2293cb42bb4fadc4ec79c2a598fe65a1c22",
    "sweep_t2": "fbba1958688088b0f8168ee6941b1c934c1e799fff18adc2fc3d010659a2efb5",
    "verify": "bc0ef49ba5c620a23c2afd46721285da7b8994e469d5b3c732df602eb2cf6236",
    "verify_drift_split": "ce55172d99dd90fd7a5ea0f36fd957d211abc808abac475b33dec4191d5010a0",
    "verify_drift_pieces": "ef2f32d9825d0a8414180222afec5274bdcfeb3d406096847543b2576647ec32",
    "verify_drift_pieces_d8": "81fc9fa941c43c9d15439e19603d150ff4664dc0a1b220c995ad463c22743577",
    "verify_hinge": "b3bebf3f96ee2aa51d69f3744177bd140a77f4a74fbeb8127471ae4e18ffa2f8",
    "verify_target_delta_odd": "ee0cf10ca08b006b06d5a9d173316c50ef19fc436570f2825ce74d00bf12b409",
    # generated before the draws of the drift probes, target_delta and t2
    # were read by position
    "compare_eval_pieces_internals": "2ea7e365957d77a8860a82b20c0b1a7b803c4b8986b92727d6cceb13b1d93dd6",
    "compare_gaussian_internals": "09a75d3eee2d981af41ab6cf254fd3ef0dd1440a4929f0234b3d6b9026c48e29",
    "compare_gaussian_centering_256_internals": "2baa08ebb9880cb1a8135a5f9fb642f14bde63a87aeb9b4275efcbaac7cc5e6b",
    "compare_gaussian_split_internals": "02044fe1a7da77839eca4637ba0685c7540e6629d901eda0407bf566ff15d4ba",
    "compare_t2_centering_300_internals": "0513c3b5915db9c86abfd73fc1fc157178a4862d1e920fdcacd878d69cc9433e",
    "real_cifar10_internals": "e0b69e07caaf75236ed3ef3b7604adca9c69ab277c5529be99028a5b38e07713",
    "real_csv_internals": "891e022d433a82d6f51d9a79a308160c7db6d943911f2380b5a95d226df01853",
    "real_csv_centering_epoch_internals": "b2335acd2978dc302f9b5fc75395e00d3253e2d33ad6eadbe3597ab210dd7ce5",
    "real_mnist_fixture_internals": "9ef734d73dcd7c4a06573abb18ac4aa19b740fc841073ba8566502657d576bdf",
    "real_mnist_unscaled_internals": "f22b6413d39f5cec1815b405a445ae9776d9e9e8826b00458c9c461c44631be3",
    "real_test_pieces_internals": "8c5ec948be09459aebe1b9e5b315cb8791011a27497fed2935ca3b04d3aa3a34",
    "sweep_gaussian_internals": "65a659510528a86245858de3bd6795ebbbd9ddfc44213fc6b264389b3edb77c7",
    "sweep_gaussian_split_internals": "88ad57b0494c385106a723ba4e57530d7114e76f46664e245e36659ca5befb92",
    "sweep_t2_internals": "5c0603a4464a11f3ea9cde6bf009ba37fb93e191cc14c8a68831478537e8187b",
    "verify_internals": "c22b9169a92400ea094eb5dc360330c7e2f935c918c574da849592856326887e",
    "verify_drift_pieces_internals": "3e23f336746ce8d26aeba1f84892b27e0f3cde7b9ab7e5a9d03f86c128e655b7",
    "verify_drift_pieces_d8_internals": "b162a0f3c849344c06ea6981d5e23d0eea5994d41600947eace540d199feee7f",
    "verify_drift_split_internals": "fc66bfc0e93a19d2c5bece50900d412e305d3f860164ed853f1b42da41cb6ce3",
    "verify_hinge_internals": "e6a8ef397bb78558555f1d47c5af982fccb7f4ef1eb475f5652c40dec3f08f3c",
    "verify_target_delta_odd_internals": "cfd635e06c84cff6f8cf2ee69cc008035cb9c581fe4984f89018b718eef0f671",
}


def _run_case(name: str) -> Path:
    """Run a golden config in the current directory; returns its output."""
    command, make_config = CASES[name]
    out = "out.json" if command == "verify-bounds" else "out.csv"
    cfg = write_config(Path("config.json"), {**make_config(), "out": out})
    assert main([command, "--config", cfg]) == EXIT_OK
    return Path(out)


def _observe(monkeypatch, owner, name: str, record) -> None:
    """Bind owner.name to a spy that returns what the function returns and
    then hands its arguments and result to record(args, result)."""
    fn = getattr(owner, name)

    def spied(*args, **kwargs):
        result = fn(*args, **kwargs)
        record(args, result)
        return result

    monkeypatch.setattr(owner, name, spied)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert hashlib.sha256(_run_case(name).read_bytes()).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_internals_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()

    def run_result(args, r):
        h.update(b"run %d %s " % (r.iterations, r.stop_reason.name.encode()) + r.theta.tobytes())

    for owner in (cli, verify):
        _observe(monkeypatch, owner, "run", run_result)
    _observe(monkeypatch, verify, "factor_array", lambda args, _: h.update(b"margins " + args[1].tobytes()))
    _observe(
        monkeypatch, cli, "accuracy_on_set",
        lambda args, _: h.update(b"offsets " + b"".join(offset.tobytes() for _, offset in args[1])),
    )
    _observe(monkeypatch, cli, "termination_probability", lambda args, _: h.update(b"probe " + args[0].tobytes()))
    _run_case(name)
    assert h.hexdigest() == DIGESTS[f"{name}_internals"]
