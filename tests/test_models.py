import os
import re
import subprocess
import sys

import numpy as np
import pytest

import tsadv.autodiff as ad
import tsadv.models as models
from tsadv.models import (
    ArchitectureConfig,
    TrainConfig,
    as_conv_input,
    build_fcn,
    build_gatn,
    build_lenet5_1d,
    lenet5_feature_length,
    train_classifier,
)
from tsadv.autodiff import Tensor
from tsadv.data import Dataset
from tsadv.nn import (
    BatchNorm1d,
    Conv1d,
    Dense,
    Flatten,
    GlobalAvgPool1d,
    MaxPool1d,
    Network,
    ReLU,
    chunk_rows,
    cross_entropy,
    fit,
    input_gradient_with_probs,
    load_model,
    predict,
    save_model,
)
from tsadv.synthetic import make_bump_dataset
from tsadv.util import one_hot, softmax_np

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_rss_mb(script):
    """Peak RSS of ``script`` run in a fresh single-BLAS-thread interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024  # kilobytes on Linux


def param_count(net) -> int:
    return sum(p.data.size for p in net.parameters())


def cfg(**kwargs):
    defaults = dict(input_length=100, num_classes=2, architecture="fcn")
    defaults.update(kwargs)
    return ArchitectureConfig(**defaults)


class TestFCN:
    def test_post_gap_feature_width(self):
        net = build_fcn(cfg())
        x = Tensor(np.zeros((2, 1, 100), dtype=np.float32))
        h = x
        for layer in net.layers[:-1]:
            h = layer.forward(h, training=False)
        assert h.data.shape == (2, 128)

    def test_probability_rows_sum_to_one(self):
        net = build_fcn(cfg())
        _, probs = predict(net, np.random.default_rng(0).normal(size=(4, 1, 100)).astype(np.float32))
        assert probs.shape == (4, 2)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_parameter_count_from_layer_arithmetic(self):
        # conv(1*8*128+128) + bn(2*128) + conv(128*5*256+256) + bn(2*256)
        #   + conv(256*3*128+128) + bn(2*128) + dense(128*2+2)
        expected = (1 * 8 * 128 + 128) + 2 * 128 + (128 * 5 * 256 + 256) + 2 * 256 \
            + (256 * 3 * 128 + 128) + 2 * 128 + (128 * 2 + 2)
        assert expected == 264962
        for length in (37, 100, 500):
            assert param_count(build_fcn(cfg(input_length=length))) == expected

    def test_same_padding_preserves_length(self):
        net = build_fcn(cfg(input_length=37))
        x = Tensor(np.zeros((1, 1, 37), dtype=np.float32))
        out = net.layers[0].forward(x, training=False)
        assert out.data.shape == (1, 128, 37)

    def test_he_uniform_bounds_and_zero_bias(self):
        net = build_fcn(cfg())
        conv = net.layers[0]
        limit = np.sqrt(6.0 / (1 * 8))
        assert np.abs(conv.w.data).max() <= limit
        assert np.array_equal(conv.b.data, np.zeros(128))

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="num_classes"):
            cfg(num_classes=1)


class TestLeNet5:
    def test_shape_arithmetic_length_100(self):
        assert lenet5_feature_length(100) == 16 * 22  # 100->96->48->44->22

    @pytest.mark.parametrize("length", [13, 14, 15])
    def test_too_short_input_rejected(self, length):
        # 13 dies at the second conv; 14 and 15 survive it but floor-pool to
        # zero length afterwards, so 16 is the exact boundary
        with pytest.raises(ValueError, match="input_length >= 16"):
            build_lenet5_1d(cfg(architecture="lenet5", input_length=length))

    def test_boundary_length_16_works(self):
        net = build_lenet5_1d(cfg(architecture="lenet5", input_length=16))
        _, probs = predict(net, np.zeros((1, 1, 16), dtype=np.float32))
        assert probs.shape == (1, 2)

    def test_probability_rows_sum_to_one(self):
        net = build_lenet5_1d(cfg(architecture="lenet5", input_length=32))
        _, probs = predict(net, np.random.default_rng(1).normal(size=(5, 1, 32)).astype(np.float32))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6

    def test_stack_layout(self):
        net = build_lenet5_1d(cfg(architecture="lenet5", input_length=32, num_classes=3))
        kinds = [layer.kind for layer in net.layers]
        assert kinds == ["conv1d", "maxpool1d", "conv1d", "maxpool1d", "flatten",
                         "dense", "relu", "dense", "relu", "dense"]
        assert net.layers[0].out_channels == 6
        assert net.layers[2].out_channels == 16
        assert net.layers[-1].units == 3


class TestGATN:
    def test_output_length_matches_input(self):
        net = build_gatn(cfg(architecture="gatn", input_length=50))
        x = np.random.default_rng(2).normal(size=(3, 50)).astype(np.float32)
        g = np.random.default_rng(3).normal(size=(3, 50)).astype(np.float32)
        out = net.forward(Tensor(np.concatenate([x, g], axis=1)), training=False)
        assert out.data.shape == (3, 50)
        assert np.isfinite(out.data).all()

    def test_parameter_count_default_hidden(self):
        net = build_gatn(cfg(architecture="gatn", input_length=100))
        expected = (200 * 128 + 128) + (128 * 128 + 128) + (128 * 100 + 100)
        assert expected == 55140
        assert param_count(net) == expected

    def test_gradient_channel_is_wired(self):
        net = build_gatn(cfg(architecture="gatn", input_length=20))
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 20)).astype(np.float32)
        g1 = rng.normal(size=(1, 20)).astype(np.float32)
        g2 = g1 + rng.normal(0, 0.5, size=(1, 20)).astype(np.float32)
        out1 = net.forward(Tensor(np.concatenate([x, g1], axis=1)), training=False).data
        out2 = net.forward(Tensor(np.concatenate([x, g2], axis=1)), training=False).data
        assert np.abs(out1 - out2).max() > 0

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError, match="hidden"):
            build_gatn(cfg(architecture="gatn", gatn_hidden_units=()))


class TestTrainClassifier:
    def test_bump_dataset_reaches_95_percent(self):
        ds = make_bump_dataset(n_per_class=32, length=32, seed=0)
        net = build_fcn(ArchitectureConfig(input_length=32, num_classes=2,
                                           architecture="fcn", seed=1))
        train_classifier(net, ds, TrainConfig(epochs=200, seed=1, early_stop_acc=0.95))
        assert net.training_log[-1]["accuracy"] >= 0.95

    def test_single_sample_memorized(self):
        ds = Dataset("one", np.linspace(0, 1, 16)[None, :], [1], {0: 0, 1: 1})
        net = build_lenet5_1d(ArchitectureConfig(input_length=16, num_classes=2,
                                                 architecture="lenet5", seed=0))
        train_classifier(net, ds, TrainConfig(epochs=50, seed=0, early_stop_acc=1.0))
        _, probs = predict(net, as_conv_input(ds.values))
        assert np.argmax(probs, axis=1).tolist() == [1]

    def test_same_seed_identical_log_and_state(self):
        ds = make_bump_dataset(n_per_class=8, length=20, seed=3)
        logs, hashes = [], []
        for _ in range(2):
            net = build_lenet5_1d(ArchitectureConfig(input_length=20, num_classes=2,
                                                     architecture="lenet5", seed=7))
            train_classifier(net, ds, TrainConfig(epochs=10, seed=7))
            logs.append(net.training_log)
            hashes.append(net.state_hash())
        assert logs[0] == logs[1]
        assert hashes[0] == hashes[1]

    @staticmethod
    def noisy_fcn_run():
        """A small FCN and a two-class set it fits only after several epochs."""
        ds = make_bump_dataset(n_per_class=8, length=20, noise=2.0, seed=3)
        net = build_fcn(ArchitectureConfig(input_length=20, num_classes=2,
                                           architecture="fcn", seed=7))
        return net, ds

    @staticmethod
    def count_predict_calls(monkeypatch):
        calls = []

        def counting(model, x):
            calls.append(x.shape[0])
            return predict(model, x)

        monkeypatch.setattr(models, "predict", counting)
        return calls

    @staticmethod
    def train_measuring_every_epoch(model, dataset, hyper):
        """``train_classifier`` as it was when every epoch ended in an accuracy pass."""
        x_all = as_conv_input(dataset.values)
        y_all = one_hot(dataset.labels, dataset.num_classes, dtype=np.float32)

        def batch_loss(idx):
            logits = model.forward(Tensor(x_all[idx]), training=True)
            return cross_entropy(y_all[idx], ad.softmax(logits, axis=1))

        def end_epoch(entry):
            _, probs = predict(model, x_all)
            entry["accuracy"] = float((np.argmax(probs, axis=1) == dataset.labels).mean())
            return hyper.early_stop_acc is not None and entry["accuracy"] >= hyper.early_stop_acc

        return fit(model, x_all.shape[0], batch_loss, hyper, end_epoch)

    def test_without_early_stop_only_the_last_epoch_is_measured(self, monkeypatch):
        net, ds = self.noisy_fcn_run()
        calls = self.count_predict_calls(monkeypatch)
        train_classifier(net, ds, TrainConfig(epochs=4, batch_size=8, seed=7))
        assert calls == [len(ds)]
        assert ["accuracy" in entry for entry in net.training_log] == [False] * 3 + [True]
        _, probs = predict(net, as_conv_input(ds.values))
        assert net.training_log[-1]["accuracy"] == float(
            (np.argmax(probs, axis=1) == ds.labels).mean())

    def test_without_early_stop_training_matches_an_every_epoch_pass(self):
        hyper = TrainConfig(epochs=4, batch_size=8, seed=7)
        net, ds = self.noisy_fcn_run()
        train_classifier(net, ds, hyper)
        ref, _ = self.noisy_fcn_run()
        self.train_measuring_every_epoch(ref, ds, hyper)
        assert net.state_hash() == ref.state_hash()
        assert [e["loss"] for e in net.training_log] == [e["loss"] for e in ref.training_log]
        assert net.training_log[-1] == ref.training_log[-1]

    def test_early_stop_measures_every_epoch_it_runs(self, monkeypatch):
        hyper = TrainConfig(epochs=12, batch_size=8, seed=7, early_stop_acc=0.8)
        ref, ds = self.noisy_fcn_run()
        self.train_measuring_every_epoch(ref, ds, hyper)
        assert len(ref.training_log) < hyper.epochs  # the run does stop early
        net, _ = self.noisy_fcn_run()
        calls = self.count_predict_calls(monkeypatch)
        train_classifier(net, ds, hyper)
        assert calls == [len(ds)] * len(net.training_log)
        assert all("accuracy" in entry for entry in net.training_log)
        assert net.training_log == ref.training_log
        assert net.state_hash() == ref.state_hash()

    def test_forward_shapes_randomized_lengths(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            length = int(rng.integers(16, 80))
            classes = int(rng.integers(2, 5))
            for builder, arch in ((build_fcn, "fcn"), (build_lenet5_1d, "lenet5")):
                net = builder(ArchitectureConfig(input_length=length, num_classes=classes,
                                                 architecture=arch))
                _, probs = predict(net, rng.normal(size=(2, 1, length)).astype(np.float32))
                assert probs.shape == (2, classes)
                assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-5

    def test_fcn_training_epoch_peak_memory_is_bounded(self):
        """One FCN training epoch, 256 series of length 128 in batches of 128,
        in a fresh interpreter, peaks well below the 746 MB it needed while
        each step's graph outlived its backward, and below the 341 MB it
        needed while training-mode BatchNorm kept its composite's arrays."""
        script = (
            "from tsadv.models import ArchitectureConfig, TrainConfig, build_fcn,"
            " train_classifier\n"
            "from tsadv.synthetic import make_bump_dataset\n"
            "net = build_fcn(ArchitectureConfig(input_length=128, num_classes=2,"
            " architecture='fcn'))\n"
            "ds = make_bump_dataset(n_per_class=128, length=128, seed=0)\n"
            "train_classifier(net, ds, TrainConfig(epochs=1, batch_size=128))\n"
            "assert len(net.training_log) == 1\n")
        peak_mb = peak_rss_mb(script)
        assert peak_mb < 300, f"peak RSS {peak_mb:.0f} MB"


BUILDERS = {"fcn": build_fcn, "lenet5": build_lenet5_1d, "gatn": build_gatn}


def layer_by_layer(net, x, training):
    h = x
    for layer in net.layers:
        h = layer.forward(h, training)
    return h


class TestOverwritingForward:
    """In Network.forward an inference BatchNorm1d or a ReLU may write over the
    previous layer's output; nothing a caller holds is written, and every bit
    is that of a pass that calls each layer's forward."""

    @pytest.mark.parametrize("architecture", sorted(BUILDERS))
    @pytest.mark.parametrize("mode", ["training", "inference", "frozen"])
    def test_network_pass_equals_layer_by_layer_pass(self, architecture, mode):
        length = 20
        shape = (6, 2 * length) if architecture == "gatn" else (6, 1, length)
        x = np.random.default_rng(2).normal(size=shape).astype(np.float32)
        before = x.copy()
        training = mode == "training"
        results = []
        for forward in (lambda net, xt: net.forward(xt, training),
                        lambda net, xt: layer_by_layer(net, xt, training)):
            net = BUILDERS[architecture](cfg(input_length=length, num_classes=3,
                                             architecture=architecture, seed=4))
            net.set_requires_grad(mode != "frozen")
            xt = Tensor(x, requires_grad=True)
            out = forward(net, xt)
            proj = np.random.default_rng(3).normal(size=out.shape).astype(out.dtype)
            ad.tsum(out * Tensor(proj)).backward()
            assert np.array_equal(x, before)
            results.append([out.data, xt.grad, *(p.grad for p in net.parameters()),
                            *net.state_arrays()])
        for new, old in zip(*results):
            if old is None:
                assert new is None
            else:
                assert new.dtype == old.dtype and np.array_equal(new, old)

    @pytest.mark.parametrize("training", [True, False])
    def test_layers_called_directly_leave_their_input(self, training):
        x = np.random.default_rng(5).normal(size=(4, 3, 9)).astype(np.float32)
        before = x.copy()
        for layer in (BatchNorm1d(3), ReLU()):
            out = layer.forward(Tensor(x, requires_grad=True), training)
            assert np.array_equal(x, before) and not np.shares_memory(out.data, x)

    def test_relu_after_relu_keeps_its_input(self):
        """A ReLU writes over a dense output, but not over another ReLU's,
        which that ReLU's backward reads."""

        class RecordingReLU(ReLU):
            def forward(self, x, training, overwrite=False):
                self.input, self.output = x, super().forward(x, training, overwrite)
                return self.output

        rng = np.random.default_rng(6)
        first, second = RecordingReLU(), RecordingReLU()
        net = Network([Dense(4, 5, rng=rng), first, second, Dense(5, 2, rng=rng)], rng_seed=0)
        net.forward(Tensor(rng.normal(size=(3, 4)).astype(np.float32)), training=True)
        assert np.shares_memory(first.output.data, first.input.data)
        assert not np.shares_memory(second.output.data, second.input.data)


# one layer of each kind: (builder, its spec, its state keys, the attributes params() returns)
LAYER_FORMATS = {
    "conv1d": (lambda: Conv1d(2, 3, 5, padding="valid"),
               {"kind": "conv1d", "in_channels": 2, "out_channels": 3, "kernel_size": 5,
                "padding": "valid"},
               ["w", "b"], ["w", "b"]),
    "batchnorm": (lambda: BatchNorm1d(4, momentum=0.8, eps=1e-3),
                  {"kind": "batchnorm", "num_features": 4, "momentum": 0.8, "eps": 1e-3},
                  ["gamma", "beta", "running_mean", "running_var"], ["gamma", "beta"]),
    "relu": (ReLU, {"kind": "relu"}, [], []),
    "maxpool1d": (lambda: MaxPool1d(3), {"kind": "maxpool1d", "pool_size": 3, "stride": 3},
                  [], []),
    "globalavgpool1d": (GlobalAvgPool1d, {"kind": "globalavgpool1d"}, [], []),
    "flatten": (Flatten, {"kind": "flatten"}, [], []),
    "dense": (lambda: Dense(6, 2), {"kind": "dense", "in_features": 6, "units": 2},
              ["w", "b"], ["w", "b"]),
}


class TestModelFile:
    """The model file format: each layer's spec keys and array names, in order."""

    @pytest.mark.parametrize("kind", sorted(LAYER_FORMATS))
    def test_spec_keys_in_order(self, kind):
        build, spec, _, _ = LAYER_FORMATS[kind]
        assert list(build().spec().items()) == list(spec.items())

    @pytest.mark.parametrize("kind", sorted(LAYER_FORMATS))
    def test_state_and_params_in_order(self, kind):
        build, _, state_keys, param_names = LAYER_FORMATS[kind]
        layer = build()
        state = layer.state()
        assert list(state) == state_keys
        assert all(type(arr) is np.ndarray for arr in state.values())
        params = layer.params()
        assert len(params) == len(param_names)
        assert all(p is getattr(layer, name) for p, name in zip(params, param_names))
        assert all(state[name] is p.data for p, name in zip(params, param_names))

    def test_load_state_refuses_a_stored_shape(self):
        with pytest.raises(ValueError, match=r"dense: stored w shape \(5, 2\) != \(6, 2\)"):
            Dense(6, 2).load_state(Dense(5, 2).state())

    def test_fcn_array_names_in_file_order(self, tmp_path):
        path = tmp_path / "fcn.npz"
        save_model(build_fcn(cfg(input_length=20)), path)
        names = ["__meta__"]
        for conv, bn in ((0, 1), (3, 4), (6, 7)):  # a block is conv1d, batchnorm, relu
            names += [f"layer{conv}.w", f"layer{conv}.b", f"layer{bn}.gamma", f"layer{bn}.beta",
                      f"layer{bn}.running_mean", f"layer{bn}.running_var"]
        with np.load(path) as data:
            assert data.files == [*names, "layer10.w", "layer10.b"]

    @pytest.mark.parametrize("architecture", sorted(BUILDERS))
    def test_save_load_save_keeps_the_bytes(self, architecture, tmp_path):
        net = BUILDERS[architecture](cfg(input_length=20, num_classes=3,
                                         architecture=architecture, seed=4))
        rng = np.random.default_rng(5)
        for layer in net.layers:  # buffers and parameters away from their initial values
            for arr in layer.state().values():
                arr[...] = rng.normal(size=arr.shape)
        net.training_log = [{"epoch": 0, "loss": 0.5}]
        first, second = tmp_path / "first.npz", tmp_path / "second.npz"
        save_model(net, first)
        back = load_model(first)
        save_model(back, second)
        assert first.read_bytes() == second.read_bytes()
        assert back.state_hash() == net.state_hash()
        assert [layer.spec() for layer in back.layers] == [layer.spec() for layer in net.layers]

    @pytest.mark.parametrize("damage", ["missing array", "truncated", "empty", "not a zip"])
    def test_damaged_file_is_a_value_error_naming_it(self, damage, tmp_path):
        path = tmp_path / "lenet5.npz"
        save_model(build_lenet5_1d(cfg(input_length=20, architecture="lenet5")), path)
        if damage == "missing array":
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files if name != "layer0.b"}
            np.savez(path, **arrays)
        else:
            whole = path.read_bytes()
            path.write_bytes({"truncated": whole[:len(whole) // 2], "empty": b"",
                              "not a zip": b"epoch\tloss\n"}[damage])
        with pytest.raises(ValueError, match=re.escape(f"cannot load model file {path}")):
            load_model(path)


class TestChunkedPasses:
    """Whole-split passes run in row chunks sized by the shapes alone, and an
    FCN's chunked results are the bits of one pass over every row."""

    @staticmethod
    def single_pass(net, x, target_class):
        xt = Tensor(x, requires_grad=True)
        logits = net.forward(xt, training=False)
        probs = ad.softmax(logits, axis=1)
        mask = np.zeros(logits.data.shape[1], dtype=logits.data.dtype)
        mask[target_class] = 1
        ad.tsum(probs * Tensor(mask)).backward()
        return xt.grad, probs.data, logits.data

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fcn_chunks_equal_one_pass(self, dtype):
        net = build_fcn(cfg(input_length=24, num_classes=3, seed=2, dtype=dtype))
        for layer in [layer for layer in net.layers if layer.kind == "batchnorm"]:
            # running statistics away from 0 and 1
            layer.running_mean = np.linspace(-0.5, 0.5, layer.num_features).astype(dtype)
            layer.running_var = np.linspace(0.5, 2.0, layer.num_features).astype(dtype)
        rows = chunk_rows(net, (1, 1, 24))
        x = np.random.default_rng(3).normal(size=(2 * rows + 7, 1, 24)).astype(dtype)
        logits, probs = predict(net, x)
        grad, g_probs, g_logits = input_gradient_with_probs(net, x, 1)
        one_grad, one_probs, one_logits = self.single_pass(net, x, 1)
        one_pred_logits = net.forward(Tensor(x), training=False).data
        assert np.array_equal(one_pred_logits, one_logits)
        assert logits.dtype == dtype and np.array_equal(logits, one_logits)
        assert np.array_equal(probs, softmax_np(one_logits, axis=1))
        assert grad.dtype == dtype and grad.shape == x.shape
        assert np.array_equal(grad, one_grad)
        assert np.array_equal(g_probs, one_probs) and np.array_equal(g_logits, one_logits)

    def test_chunk_rows_are_a_function_of_the_shapes(self):
        # 2**21 elements over the widest per-row conv buffer, 256 * 3 * L for the fcn
        for seed, classes in ((0, 2), (5, 4)):
            net = build_fcn(cfg(input_length=24, num_classes=classes, seed=seed))
            assert [chunk_rows(net, (n, 1, 24)) for n in (1, 515, 10**6)] == [113] * 3
            assert chunk_rows(net, (515, 1, 128)) == 21
            assert chunk_rows(net, (515, 1, 1024)) == 2
        lenet = build_lenet5_1d(cfg(input_length=24, architecture="lenet5"))
        assert chunk_rows(lenet, (1029, 1, 24)) == 2912

    def test_lenet5_makes_one_chunk_at_1029_rows(self):
        net = build_lenet5_1d(cfg(input_length=24, num_classes=3, architecture="lenet5", seed=1))
        x = np.random.default_rng(4).normal(size=(1029, 1, 24)).astype(np.float32)
        batches = []
        forward = net.forward
        net.forward = lambda h, training=False: batches.append(len(h.data)) or forward(h, training)
        logits, _ = predict(net, x)
        grad, _, g_logits = input_gradient_with_probs(net, x, 2)
        assert batches == [1029, 1029]
        assert np.array_equal(logits, g_logits) and grad.shape == x.shape

    def test_edge_inputs(self):
        net = build_fcn(cfg(input_length=24, num_classes=3, seed=2))
        series = np.random.default_rng(5).normal(size=24)
        logits, probs = predict(net, as_conv_input(series))
        grad, _, g_logits = input_gradient_with_probs(net, as_conv_input(series), 0)
        assert logits.shape == probs.shape == (1, 3) and grad.shape == (1, 1, 24)
        assert np.array_equal(logits, g_logits)
        with pytest.raises(ValueError, match="out of range"):
            input_gradient_with_probs(net, as_conv_input(series), 3)

    def test_target_class_checked_before_any_chunk(self):
        net = build_fcn(cfg(input_length=24, num_classes=2))
        calls = []
        net.forward = lambda *args, **kwargs: calls.append(1)
        with pytest.raises(ValueError, match="out of range"):
            input_gradient_with_probs(net, np.zeros((300, 1, 24), dtype=np.float32), 2)
        assert calls == []

    def test_tracked_fcn_pass_peak_memory_is_bounded(self):
        """One tracked FCN pass over 515 series of length 128, in a fresh
        interpreter, peaks well below the 748 MB its unchunked inference pass
        alone needed."""
        script = (
            "import numpy as np\n"
            "from tsadv.models import ArchitectureConfig, build_fcn\n"
            "from tsadv.nn import input_gradient_with_probs\n"
            "net = build_fcn(ArchitectureConfig(input_length=128, num_classes=2,"
            " architecture='fcn'))\n"
            "net.set_requires_grad(False)\n"
            "x = np.random.default_rng(0).normal(size=(515, 1, 128)).astype(np.float32)\n"
            "grad, probs, _ = input_gradient_with_probs(net, x, 1)\n"
            "assert grad.shape == x.shape and probs.shape == (515, 2)\n")
        peak_mb = peak_rss_mb(script)
        assert peak_mb < 400, f"peak RSS {peak_mb:.0f} MB"

    def test_fcn_training_peak_memory_is_bounded(self):
        """One FCN training batch of 128 series of length 128, in a fresh
        interpreter, peaks below 200 MB: conv1d's im2col buffers are blocks of
        about 1 MB, where a whole-batch buffer of the 256 -> 128 layer alone
        was 50 MB (about 184 MB against 216 MB at the peak)."""
        script = (
            "import numpy as np\n"
            "from tsadv.data import Dataset\n"
            "from tsadv.models import ArchitectureConfig, TrainConfig, build_fcn,"
            " train_classifier\n"
            "net = build_fcn(ArchitectureConfig(input_length=128, num_classes=2,"
            " architecture='fcn'))\n"
            "values = np.random.default_rng(0).normal(size=(128, 128))\n"
            "data = Dataset('long', values, np.arange(128) % 2, {0: 0, 1: 1})\n"
            "train_classifier(net, data, TrainConfig(epochs=1, batch_size=128))\n"
            "assert len(net.training_log) == 1\n")
        peak_mb = peak_rss_mb(script)
        assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"

    def test_warm_fcn_passes_do_not_refault_their_buffers(self):
        """After the CLI's `_keep_freed_memory`, warm whole-split FCN passes
        reuse the memory the first ones freed instead of faulting it in again
        (about 180 000 minor faults for these passes under glibc's defaults)."""
        import ctypes

        if not hasattr(ctypes.CDLL(None), "mallopt"):
            pytest.skip("this C library has no mallopt")
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from tsadv.cli import _keep_freed_memory\n"
            "from tsadv.models import ArchitectureConfig, build_fcn\n"
            "from tsadv.nn import input_gradient_with_probs, predict\n"
            "_keep_freed_memory()\n"
            "net = build_fcn(ArchitectureConfig(input_length=24, num_classes=2,"
            " architecture='fcn'))\n"
            "net.set_requires_grad(False)\n"
            "x = np.random.default_rng(0).normal(size=(515, 1, 24)).astype(np.float32)\n"
            "def passes():\n"
            "    predict(net, x)\n"
            "    input_gradient_with_probs(net, x, 1)\n"
            "passes()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(4):\n"
            "    passes()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        faults = int(proc.stdout)
        assert faults < 2000, f"{faults} minor page faults over 4 warm pass pairs"
