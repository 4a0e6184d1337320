"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold. Run with ``pytest tests/test_acceptance.py -v``.

The slow criteria (memorization, desk-scale learning) sit at the end;
the whole module finishes in a few minutes on one CPU.
"""

import numpy as np
import numpy.testing as npt
import pytest

from reconv import (ArchConfig, Dataset, FormatError, TrainConfig,
                    check_model_grads, forward, init_params,
                    load_cifar10, load_raw, loss_and_grads, make_synthetic,
                    param_count, save_raw, train, untie)
from reconv.cli import main as cli_main
from reconv.data import PIXELS_PER_IMAGE, RECORD_BYTES


def report(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_01_parameter_count_golden_values():
    untied = param_count(ArchConfig(feature_maps=71, layers=3, tied=False))
    tied = param_count(ArchConfig(feature_maps=108, layers=3, tied=True))
    assert untied == 195473
    assert tied == 195058
    rel = abs(untied - tied) / max(untied, tied)
    assert rel == pytest.approx(0.0021, abs=2e-4)
    assert rel <= 0.01
    report(1, f"counts 195473/195058, rel diff {rel:.4%} <= 1%")


def test_criterion_02_tied_count_independent_of_depth():
    for m in (16, 108, 256):
        counts = {param_count(ArchConfig(feature_maps=m, layers=l, tied=True))
                  for l in range(1, 17)}
        assert len(counts) == 1, f"tied count varies with L at M={m}"
    report(2, "tied parameter count constant over L in 1..16 for M in {16,108,256}")


def test_criterion_03_identity_propagation():
    rng = np.random.default_rng(0)
    for m, l, tied in [(4, 1, True), (8, 3, False), (16, 5, True),
                       (32, 8, True), (32, 8, False)]:
        cfg = ArchConfig(feature_maps=m, layers=l, tied=tied)
        params = init_params(cfg, seed=m + l)
        image = rng.uniform(0, 1, (32, 32, 3))
        tape = forward(params, image)
        npt.assert_array_equal(tape.hidden[-1], tape.hidden[0])
    report(3, "fresh models copy pooled activations unchanged to the last layer")


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_criterion_04_gradient_oracle(tied):
    cfg = ArchConfig(feature_maps=4, layers=3, tied=tied, input_h=8, input_w=8)
    gradcheck = check_model_grads(cfg, seed=0, tol=1e-4, eps=1e-5)
    for check in gradcheck.checks:
        assert check.passed, f"{check.name}: max_rel_err={check.max_rel_err:.3e}"
    assert gradcheck.passed
    worst = max(c.max_rel_err for c in gradcheck.checks)
    report(4, f"{'tied' if tied else 'untied'} M=4 L=3 finite differences agree, "
              f"worst rel err {worst:.2e} < 1e-4")


def test_criterion_05_tied_equals_summed_untied():
    cfg = ArchConfig(feature_maps=4, layers=3, tied=True, input_h=8, input_w=8)
    rng = np.random.default_rng(5)
    params = init_params(cfg, seed=5)
    params.first_bias += 0.1
    params.hidden_kernels[0] += rng.normal(0, 0.05, params.hidden_kernels[0].shape)
    params.classifier = rng.normal(0, 0.1, params.classifier.shape)
    image = rng.uniform(0, 1, (8, 8, 3))
    label = 6

    unrolled = untie(params)
    tape_tied = forward(params, image)
    tape_untied = forward(unrolled, image)
    npt.assert_array_equal(tape_tied.logits, tape_untied.logits)
    npt.assert_array_equal(tape_tied.probs, tape_untied.probs)
    for a, b in zip(tape_tied.hidden, tape_untied.hidden):
        npt.assert_array_equal(a, b)

    _, tied_grads = loss_and_grads(params, image, label)
    _, untied_grads = loss_and_grads(unrolled, image, label)
    kernel_sum = np.sum(untied_grads.hidden_kernels, axis=0)
    bias_sum = np.sum(untied_grads.hidden_biases, axis=0)
    npt.assert_allclose(tied_grads.hidden_kernels[0], kernel_sum, rtol=1e-10)
    npt.assert_allclose(tied_grads.hidden_biases[0], bias_sum, rtol=1e-10)
    report(5, "forward tapes bit-identical; tied gradient = layer sum within 1e-10")


def test_criterion_06_analytic_first_gradient():
    cfg = ArchConfig(feature_maps=4, layers=2, tied=True, input_h=8, input_w=8)
    params = init_params(cfg, seed=3)  # zero classifier
    image = np.random.default_rng(1).uniform(0, 1, (8, 8, 3))
    label = 2
    _, grads = loss_and_grads(params, image, label)
    expected = np.full(10, 0.1)
    expected[label] -= 1.0
    npt.assert_allclose(grads.classifier_bias, expected, rtol=0, atol=1e-12)
    report(6, "dLoss/dc_bias = uniform - onehot exactly (1e-12)")


def test_criterion_07_memorizes_random_labels():
    rng = np.random.default_rng(0)
    images = rng.uniform(0, 1, (32, 32, 32, 3))
    labels = rng.integers(0, 10, 32)
    data = Dataset(images, labels)
    arch = ArchConfig(feature_maps=16, layers=2, tied=True)
    # single 32-example batch per epoch; observed to hit zero near epoch 25,
    # well inside the 200-epoch budget
    result = train(arch, data, data, TrainConfig(epochs=60, batch_size=128), seed=0)
    errors = [r.train_error for r in result.records]
    first_zero = next((i for i, e in enumerate(errors) if e == 0.0), None)
    assert first_zero is not None and first_zero < 200
    report(7, f"0% training error on 32 random labels at epoch {first_zero} (< 200)")


@pytest.mark.slow
def test_criterion_08_desk_scale_learning_signal():
    train_data = make_synthetic(2000, seed=0)
    test_data = make_synthetic(500, seed=1)
    # the summed-gradient update at the default hyperparameters destabilizes
    # desk-scale tied models with L >= 2, so these runs use lr 1e-4
    def fit(layers, eval_every):
        arch = ArchConfig(feature_maps=16, layers=layers, tied=True)
        cfg = TrainConfig(epochs=10, batch_size=128, learning_rate=1e-4,
                          eval_every=eval_every)
        return train(arch, train_data, test_data, cfg, seed=0)

    headline = fit(layers=2, eval_every=1)
    best_test = min(r.test_error for r in headline.records)
    assert best_test <= 0.70, f"test error {best_test:.3f} above chance margin"

    shallow = fit(layers=1, eval_every=10)
    deep = fit(layers=4, eval_every=10)
    train_l1 = shallow.records[-1].train_error
    train_l4 = deep.records[-1].train_error
    assert train_l4 <= train_l1, f"L=4 {train_l4:.3f} > L=1 {train_l1:.3f}"
    report(8, f"tied M=16 L=2 test error {best_test:.3f} <= 0.70 within 10 epochs; "
              f"train error L=4 {train_l4:.3f} <= L=1 {train_l1:.3f}")


def test_criterion_09_cli_replays_byte_identically(tmp_path):
    raw_images, raw_labels = tmp_path / "cc.img", tmp_path / "cc.lab"
    save_raw(make_synthetic(6, seed=2), raw_images, raw_labels)
    common = lambda name: ["--out", str(tmp_path / name)]
    runs = [
        (["pairs", "--layers", "3", "--m-min", "16", "--m-max", "128"],
         "pairs.csv"),
        (["contours", "--kind", "tied", "--m-list", "8,16,32", "--l-list", "1,2,4"],
         "contours.csv"),
        (["gradcheck", "--m", "2", "--l", "2", "--tied"], "gradcheck.csv"),
        (["train", "--epochs", "1", "--m", "2", "--l", "1", "--tied",
          "--synth-train", "16", "--synth-test", "8", "--batch-size", "8"],
         "metrics.csv"),
        (["experiment", "--kind", "pair-tied-vs-untied", "--m-list", "2",
          "--l-list", "1", "--epochs", "1", "--synth-train", "8",
          "--synth-test", "4"], "results.csv"),
        (["convert-check", "--format", "raw", "--images", str(raw_images),
          "--labels", str(raw_labels), "--n", "6"], "convert_check.csv"),
    ]
    for args, artifact in runs:
        out = tmp_path / artifact
        argv = args + common(artifact)
        assert cli_main(argv) == 0
        first = (tmp_path / artifact / artifact).read_bytes()
        assert cli_main(argv) == 0  # identical manifest, same out dir
        assert (tmp_path / artifact / artifact).read_bytes() == first
        # and a replay driven purely by the written manifest
        manifest = tmp_path / artifact / "manifest.txt"
        assert cli_main([args[0], "--config", str(manifest)]) == 0
        assert (tmp_path / artifact / artifact).read_bytes() == first
    report(9, "all six subcommands' CSVs byte-identical across reruns and "
              "manifest replays")


def test_criterion_10_data_format_round_trip(tmp_path):
    data = make_synthetic(17, seed=9)
    img1, lab1 = tmp_path / "a.img", tmp_path / "a.lab"
    img2, lab2 = tmp_path / "b.img", tmp_path / "b.lab"
    save_raw(data, img1, lab1)
    loaded = load_raw(img1, lab1, n=17)
    save_raw(loaded, img2, lab2)
    assert img1.read_bytes() == img2.read_bytes()
    assert lab1.read_bytes() == lab2.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(RECORD_BYTES) + b"\x01")
    with pytest.raises(FormatError) as truncated:
        load_cifar10([bad])
    assert truncated.value.offset == RECORD_BYTES

    badlabel = tmp_path / "badlabel.bin"
    badlabel.write_bytes(bytes([11]) + bytes(PIXELS_PER_IMAGE))
    with pytest.raises(FormatError) as labeled:
        load_cifar10([badlabel])
    assert labeled.value.record == 0
    report(10, "raw round trip byte-lossless; malformed files rejected with "
               "positioned errors")
