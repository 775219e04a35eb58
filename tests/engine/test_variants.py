"""Conv kernel variants: equivalence, fused pooling, and the variant rule."""

import functools

import numpy as np
import pytest

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect.predict import predict
from repro.detect.sppnet import SPPNetDetector
from repro.engine import CompiledModel
from repro.engine import compile as engine_compile
from repro.engine import compiled as compiled_module
from repro.engine.autotune import (
    CONV_VARIANTS,
    ConvKey,
    autotune_choices,
    clear_autotune_cache,
    select_variant,
)
from repro.engine.kernels import (
    bind_conv,
    conv_out_hw,
    conv_scratch_elems,
    pack_conv_weight,
)
from repro.nas.space import sppnet_search_space
from repro.tensor import Tensor, no_grad
from repro.tensor.modules import Conv2d, MaxPool2d, ReLU, Sequential


def small_config(kernel=3):
    return SPPNetConfig(
        convs=(ConvSpec(8, kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
        spp_levels=(2, 1), fc_sizes=(32,), in_channels=4,
    )


def run_variant(variant, *, batch=2, h=13, w=11, c=3, f=8, k=3, stride=1,
                pad=0, relu=True, pool=None, bias=True, seed=0):
    """Bind one conv kernel on standalone buffers and run it."""
    rng = np.random.default_rng(seed)
    src = rng.standard_normal((batch, h, w, c)).astype(np.float32)
    weight = rng.standard_normal((f, c, k, k)).astype(np.float32)
    b_vec = rng.standard_normal(f).astype(np.float32) if bias else None
    ho, wo = conv_out_hw(h, w, k, stride, pad)
    out_hw = (ho // 2, wo // 2) if pool else (ho, wo)
    out = np.empty((batch,) + out_hw + (f,), dtype=np.float32)
    scratch = np.empty(batch * conv_scratch_elems(
        variant, batch=batch, h=h, w=w, c_in=c, out_channels=f, kernel=k,
        stride=stride, padding=pad, bias=bias, pool=pool is not None),
        dtype=np.float32)
    fn = bind_conv(
        variant, src=src, out=out, scratch=scratch, k=k, stride=stride,
        pad=pad, relu=relu, pool=pool,
        w_pack=pack_conv_weight(weight, b_vec, np.dtype(np.float32)))
    fn()
    return out


class TestKernelEquivalence:
    """im2col is the reference; the tiled variant must match it."""

    @pytest.mark.parametrize("variant", ["im2col_tiled"])
    @pytest.mark.parametrize("pool", [None, (2, 2)])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_3x3_stride1(self, variant, pool, pad):
        kw = dict(h=14, w=12, c=5, f=7, k=3, stride=1, pad=pad, pool=pool)
        ref = run_variant("im2col", **kw)
        got = run_variant(variant, **kw)
        np.testing.assert_allclose(got, ref, atol=2e-5, rtol=1e-4)

    @pytest.mark.parametrize("k,stride", [(5, 1), (3, 2), (1, 1)])
    def test_tiled_other_geometries(self, k, stride):
        kw = dict(h=17, w=15, c=4, f=6, k=k, stride=stride, pad=0)
        ref = run_variant("im2col", **kw)
        got = run_variant("im2col_tiled", **kw)
        np.testing.assert_allclose(got, ref, atol=2e-5, rtol=1e-4)

    def test_without_bias_and_relu(self):
        kw = dict(h=10, w=10, c=3, f=4, bias=False, relu=False)
        ref = run_variant("im2col", **kw)
        np.testing.assert_allclose(
            run_variant("im2col_tiled", **kw), ref, atol=2e-5, rtol=1e-4)

    def test_odd_output_with_fused_pool(self):
        # 13x11 input -> 11x9 conv output -> 5x4 pooled: the pool floors
        # away the odd edge, so the tiled kernel must skip the trailing
        # row block that no pool window covers.
        kw = dict(h=13, w=11, c=3, f=8, pool=(2, 2))
        ref = run_variant("im2col", **kw)
        np.testing.assert_allclose(
            run_variant("im2col_tiled", **kw), ref, atol=2e-5, rtol=1e-4)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_variant("fft")


class TestCompiledEquivalence:
    """Every variant must produce eager-equivalent full-model outputs."""

    @pytest.fixture()
    def force(self, monkeypatch):
        def pin(variant):
            monkeypatch.setattr(compiled_module, "select_variant",
                                lambda key: variant)
        return pin

    @pytest.mark.parametrize("variant", CONV_VARIANTS)
    def test_forced_variant_matches_eager(self, variant, force):
        force(variant)
        model = SPPNetDetector(small_config(), seed=3)
        model.eval()
        x = np.random.default_rng(0).standard_normal(
            (3, 4, 32, 32)).astype(np.float32)
        conf, boxes = predict(model, x, batch_size=3)
        compiled = CompiledModel(model, (4, 32, 32))
        eng_conf, eng_boxes = compiled.predict(x, batch_size=3)
        assert set(compiled.kernel_choices(batch=3).values()) == {variant}
        np.testing.assert_allclose(eng_conf, conf, atol=1e-4, rtol=1e-3)
        np.testing.assert_allclose(eng_boxes, boxes, atol=1e-4, rtol=1e-3)

    @pytest.mark.parametrize("variant", CONV_VARIANTS)
    def test_forced_variant_padded_conv(self, variant, force):
        force(variant)
        net = Sequential(Conv2d(3, 8, 3, padding=1), ReLU(), MaxPool2d(2, 2))
        net.eval()
        x = np.random.default_rng(1).standard_normal(
            (2, 3, 10, 10)).astype(np.float32)
        with no_grad():
            eager = net(Tensor(x)).data
        compiled = CompiledModel(net, (3, 10, 10))
        np.testing.assert_allclose(compiled(x), eager, atol=1e-4, rtol=1e-3)

    def test_kernel_choices_reported(self):
        model = SPPNetDetector(small_config(), seed=3)
        model.eval()
        compiled = CompiledModel(model, (4, 32, 32))
        compiled.predict(np.zeros((1, 4, 32, 32), dtype=np.float32))
        choices = compiled.kernel_choices(batch=1)
        assert choices  # one entry per conv step
        assert all(v in CONV_VARIANTS for v in choices.values())


def key(**overrides):
    base = dict(batch=1, height=32, width=32, in_channels=4, out_channels=8,
                kernel=3, stride=1, padding=0, pool=True, dtype="float32",
                mode="float32")
    base.update(overrides)
    return ConvKey(**base)


def expected_variant(in_channels, kernel, mode):
    """The rule, restated: tiled for float convs with a <= 64-wide row."""
    if mode != "int8" and in_channels * kernel * kernel <= 64:
        return "im2col_tiled"
    return "im2col"


class TestVariantRule:
    def test_geometry_decides(self):
        assert select_variant(key(in_channels=4, kernel=3)) == "im2col_tiled"
        assert select_variant(key(in_channels=4, kernel=1)) == "im2col_tiled"
        assert select_variant(key(in_channels=4, kernel=5)) == "im2col"
        assert select_variant(key(in_channels=64, kernel=1)) == "im2col_tiled"
        assert select_variant(key(in_channels=64, kernel=3)) == "im2col"
        assert select_variant(key(in_channels=8, kernel=3)) == "im2col"

    def test_int8_pins_im2col(self):
        for k in (1, 3, 9):
            assert select_variant(key(kernel=k, mode="int8")) == "im2col"

    def test_batch_and_dtype_do_not_matter(self):
        base = select_variant(key())
        for batch in (1, 2, 20):
            for dtype in ("float32", "float64"):
                assert select_variant(key(batch=batch, dtype=dtype)) == base

    def test_decisions_are_recorded_and_cleared(self):
        saved = autotune_choices()
        try:
            clear_autotune_cache()
            k = key(height=4321)
            select_variant(k)
            assert autotune_choices() == {k: "im2col_tiled"}
            clear_autotune_cache()
            assert autotune_choices() == {}
        finally:
            clear_autotune_cache()
            for old in saved:
                select_variant(old)


FIRST_KERNELS = sppnet_search_space()["first_kernel"].candidates
RULE_BATCHES = (1, 2, 3, 4, 8, 16, 20)
#: engine-vs-eager tolerance per execution mode (float32 matches the
#: equivalence suite; the reduced modes match the quantized-parity suite)
MODE_ATOL = {"float32": 1e-5, "float16": 2e-3, "int8": 0.08}


@functools.lru_cache(maxsize=None)
def rule_model(kernel):
    model = SPPNetDetector(small_config(kernel=kernel), seed=1)
    model.eval()
    return model


@functools.lru_cache(maxsize=None)
def rule_chips(batch):
    return np.random.default_rng(batch).standard_normal(
        (batch, 4, 32, 32)).astype(np.float32)


@functools.lru_cache(maxsize=None)
def rule_eager(kernel, batch):
    return predict(rule_model(kernel), rule_chips(batch), batch_size=batch)


@functools.lru_cache(maxsize=None)
def rule_engine(kernel, mode):
    return engine_compile(rule_model(kernel), quant=mode, schedule=False)


@pytest.mark.parametrize("mode", sorted(MODE_ATOL))
@pytest.mark.parametrize("batch", RULE_BATCHES)
@pytest.mark.parametrize("first_kernel", FIRST_KERNELS)
def test_rule_over_search_space(first_kernel, batch, mode):
    compiled = rule_engine(first_kernel, mode)
    x = rule_chips(batch)
    conf, boxes = compiled.predict(x, batch_size=batch)

    shapes = {s.name: s.out_shape for s in compiled.steps}
    convs = [s for s in compiled.steps if s.kind in ("conv", "conv_pool")]
    bound = compiled.kernel_choices(batch=batch)
    assert set(bound) == {s.name for s in convs}
    for step in convs:
        in_channels = shapes[step.inputs[0]][0]
        assert bound[step.name] == expected_variant(
            in_channels, int(step.attrs["kernel"]), mode), step.name
    if mode == "int8":
        assert set(bound.values()) == {"im2col"}

    ref_conf, ref_boxes = rule_eager(first_kernel, batch)
    atol = MODE_ATOL[mode]
    np.testing.assert_allclose(conf, ref_conf, atol=atol, rtol=1e-4)
    np.testing.assert_allclose(boxes, ref_boxes, atol=atol, rtol=1e-4)
