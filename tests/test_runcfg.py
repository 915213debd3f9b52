import configparser
import io
import os
import re
import tempfile
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piece.runcfg import (
    _SECTIONS,
    ConfigError,
    RunConfig,
    _section_fields,
    config_ini_text,
    default_config_ini,
    parse_config,
    write_config,
)
from piece.datagen import MIN_CLASS_SAMPLES

NON_DEFAULT_INI = """
[run]
seed = 13

[classifier]
hidden = 40,20

[baselines]
lambda_sweep = 1.5,2
"""


class TestConfigEcho:
    def test_config_ini_text_returns_str(self):
        text = config_ini_text(parse_config(None))
        assert isinstance(text, str)
        assert "[run]" in text and "[metrics]" in text

    def test_default_round_trip(self, tmp_path):
        cfg = parse_config(None)
        echo = tmp_path / "config.ini"
        write_config(cfg, str(echo))
        assert parse_config(str(echo)) == cfg

    def test_non_default_round_trip(self, tmp_path):
        src = tmp_path / "in.ini"
        src.write_text(NON_DEFAULT_INI)
        cfg = parse_config(str(src))
        assert cfg.seed == 13
        assert cfg.classifier.hidden == (40, 20)
        assert cfg.baselines.lam_sweep == (1.5, 2.0)
        echo = tmp_path / "config.ini"
        write_config(cfg, str(echo))
        assert parse_config(str(echo)) == cfg


# the echo of the built-in defaults: every key of every section, in order
DEFAULT_INI = """\
[run]
seed = 7
alpha = 0.05

[dataset]
n_train_per_class = 250
n_test_per_class = 100
side = 16
n_classes = 4
translate_jitter = 2
thickness_min = 1
thickness_max = 3
intensity_min = 0.7
intensity_max = 1.0
noise_sigma = 0.05

[classifier]
epochs = 60
batch_size = 32
lr = 0.003
hidden = 64,32
seed = 18
dropout = 0.25
early_stop_accuracy = 0.97
min_accuracy = 0.85

[generator]
epochs = 400
batch_size = 32
lr = 0.003
hidden = 96
seed = 29
latent_dim = 8
recon_mse_target = 0.01

[autoencoders]
epochs = 150
batch_size = 32
lr = 0.003
hidden = 64
seed = 40
latent_dim = 8
recon_mse_target = 0.01

[pipeline]
invert_restarts = 8
invert_steps = 800
invert_lr = 0.05
ascent_lr = 0.02
ascent_max_steps = 2000
visualize_steps = 400
visualize_lr = 0.05

[baselines]
lr = 0.02
max_steps = 2000
lambda = 30.0
lambda_sweep = 10.0,30.0,100.0

[experiment]
n_correct = 30
n_close_correct = 20
close_correct_max_prob = 0.8
n_semifactual = 20
max_failure_fraction = 0.25

[metrics]
mc_passes = 1000
knn_k = 1
knn_k_extra = 3

"""

LIST_KEYS = {"hidden": int, "lambda_sweep": float}
# the least value parse_config takes of each count that has one above 0
LEAST = {
    **dict.fromkeys(("invert_restarts", "mc_passes", "knn_k", "knn_k_extra", "epochs",
                     "batch_size", "latent_dim", "n_test_per_class"), 1),
    "n_train_per_class": MIN_CLASS_SAMPLES,
}
# the greatest value parse_config takes of each count bounded by [dataset]
# keys, at the least values those keys are drawn with: a latent code must be
# narrower than the frame (side 17: 289 pixels), and k at most the training
# images (30 per class, 2 classes)
MOST = {"latent_dim": 288, "knn_k": 60, "knn_k_extra": 60}
# the glyph keys are checked together as the config is parsed; within these
# ranges every combination of non-default values draws inside the frame
GLYPH_VALUES = {
    "side": st.integers(17, 64),
    "n_classes": st.integers(2, 3),
    "translate_jitter": st.integers(0, 5),
    "thickness_min": st.just(2),
    "thickness_max": st.just(2),
    "intensity_min": st.floats(0.01, 0.5),
    "intensity_max": st.floats(0.5, 0.99),
    "noise_sigma": st.floats(0.0, 1.0),
}

_TRAIN = ("classifier", "generator", "autoencoders")
# every value that `test_limit_values_are_refused_or_known` finds parse_config
# taking, with why it is not refused
_SIZES = [("dataset", "n_train_per_class"), ("dataset", "n_test_per_class"), ("dataset", "side"),
          ("generator", "hidden"), ("autoencoders", "hidden"), ("pipeline", "invert_restarts"),
          ("metrics", "mc_passes"), *((s, "batch_size") for s in _TRAIN)]
_STEPS = [("pipeline", "invert_steps"), ("pipeline", "ascent_max_steps"),
          ("pipeline", "visualize_steps"), ("baselines", "max_steps")]
_BUDGETS = [*_STEPS, *((s, "epochs") for s in _TRAIN)]
_RATES = [("pipeline", "invert_lr"), ("pipeline", "ascent_lr"), ("pipeline", "visualize_lr"),
          ("baselines", "lr")]
_COUNTS = [("experiment", k) for k in ("n_correct", "n_close_correct", "n_semifactual")]
_HUGE = {int: "1000000000", float: "1e9"}
KNOWN_TO_RUN = {
    **{(s, "seed", v): "any seed from 0 up is one numpy takes"
       for s in ("run", *_TRAIN) for v in ("0", _HUGE[int])},
    **{(s, k, _HUGE[int]): "a size: only time and memory bound it" for s, k in _SIZES},
    **{(s, k, _HUGE[int]): "a step or epoch budget: time bounds it" for s, k in _BUDGETS},
    **{(s, k, "0"): "a budget of 0: the search keeps its start point" for s, k in _STEPS},
    **{(s, k, "0"): "a step size of 0: the search stays at its start" for s, k in _RATES},
    **{(s, k, "1e9"): "a step size: the search runs, if to no use" for s, k in _RATES},
    **{(s, "lr", "1e9"): "a step size: the fit runs, if to no use" for s in _TRAIN},
    **{(s, k, "0"): "an empty bucket (README)" for s, k in _COUNTS},
    **{(s, k, _HUGE[int]): "takes every image the bucket has" for s, k in _COUNTS},
    ("dataset", "translate_jitter", "0"): "no shift: every glyph is centred",
    ("dataset", "noise_sigma", "0"): "no noise",
    ("dataset", "noise_sigma", "1e9"): "noise swamps the glyphs; pixels are clipped to [0, 1]",
    ("classifier", "dropout", "0"): "no dropout",
    **{("classifier", "early_stop_accuracy", v): "stops after the first epoch"
       for v in ("0", "-1")},
    ("classifier", "early_stop_accuracy", "1e9"): "never stops early: runs every epoch",
    **{("classifier", "min_accuracy", v): "accepts any classifier" for v in ("0", "-1")},
    ("classifier", "min_accuracy", "1e9"): "no classifier reaches it: train exits 1 naming it",
    **{("generator", "recon_mse_target", v): "no fit reaches it: train exits 1 naming it"
       for v in ("0", "-1")},
    **{("autoencoders", "recon_mse_target", v): "only stops a fit early: every epoch runs"
       for v in ("0", "-1")},
    **{(s, "recon_mse_target", "1e9"): "every fit reaches it, after its first epoch"
       for s in ("generator", "autoencoders")},
    ("baselines", "lambda", "1e9"): "a weight: the search leans on its class term",
    ("baselines", "lambda_sweep", "1e9"): "a weight: the search leans on its class term",
    ("baselines", "lambda_sweep", ""): "no sweep: expt1_lambda_sweep.csv has no rows",
    ("experiment", "max_failure_fraction", "0"): "any failure exits 5",
}


def limit_values(hint) -> tuple:
    """0, -1, a huge value, NaN and an empty value, as INI text of `hint`'s
    (or its items') type."""
    item = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else hint
    return ("0", "-1", _HUGE[item], "nan", "")


def parse_text(text: str) -> RunConfig:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return parse_config(path)


def default_keys():
    ini = configparser.ConfigParser()
    ini.read_string(DEFAULT_INI)
    return [(s, k, v) for s in ini.sections() for k, v in ini[s].items()]


def non_default(key: str, default: str):
    """A strategy of INI values for `key` that differ from `default`."""
    if key in LIST_KEYS:
        item = (
            st.integers(1, 500)
            if LIST_KEYS[key] is int
            else st.floats(0.01, 1e3, allow_nan=False)
        )
        # each sweep value is one report row, so a sweep may not repeat one;
        # a section takes as many hidden widths as its default has
        sweep, n = key == "lambda_sweep", len(default.split(","))
        value = st.lists(
            item, min_size=1 if sweep else n, max_size=4 if sweep else n, unique=sweep
        ).map(
            lambda xs: ",".join(str(x) for x in xs)
        )
    elif key == "alpha":
        value = st.floats(0.001, 0.49).map(str)
    elif key == "dropout":
        value = st.floats(0.0, 0.99).map(str)
    elif key in ("close_correct_max_prob", "max_failure_fraction"):
        value = st.floats(0.001, 1.0).map(str)
    elif key in GLYPH_VALUES:
        value = GLYPH_VALUES[key].map(str)
    elif re.fullmatch(r"\d+", default):
        value = st.integers(LEAST.get(key, 0), MOST.get(key, 100000)).map(str)
    else:
        value = st.floats(1e-6, 1e6, allow_nan=False).map(str)
    return value.filter(lambda v: v != default)


class TestConfigContract:
    def test_default_echo_is_pinned(self):
        assert default_config_ini() == DEFAULT_INI
        assert len(default_keys()) == 53

    def test_no_file_gives_the_dataclass_defaults(self):
        assert parse_config(None) == RunConfig()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_every_key_round_trips(self, data):
        ini = configparser.ConfigParser()
        for section, key, default in default_keys():
            if not ini.has_section(section):
                ini.add_section(section)
            ini[section][key] = data.draw(non_default(key, default), label=f"{section}.{key}")
        buf = io.StringIO()
        ini.write(buf)
        cfg = parse_text(buf.getvalue())
        echo = config_ini_text(cfg)
        assert parse_text(echo) == cfg
        # every key reached the config: the echo carries each drawn value
        back = configparser.ConfigParser()
        back.read_string(echo)
        for section, key, _ in default_keys():
            drawn, echoed = ini[section][key], back[section][key]
            assert [float(v) for v in drawn.split(",")] == [float(v) for v in echoed.split(",")]

    def test_limit_values_are_refused_or_known(self):
        # parse only: each value is refused naming its section, or is listed
        # above; a listed value that is refused makes its entry stale
        cfg, taken = RunConfig(), set()
        for section in _SECTIONS:
            for _, _, key, hint, _ in _section_fields(cfg, section):
                for raw in limit_values(hint):
                    try:
                        parse_text(f"[{section}]\n{key} = {raw}\n")
                    except ConfigError as exc:
                        assert str(exc).startswith(f"[{section}] "), str(exc)
                        continue
                    taken.add((section, key, raw))
        assert taken == set(KNOWN_TO_RUN)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[pipeline\].*invert_step"):
            parse_text("[pipeline]\ninvert_step = 10\n")

    def test_renamed_and_hidden_fields_are_not_keys(self):
        # and keys that no stage reads, which older versions echoed
        for section, key in (("classifier", "dropout_rate"), ("baselines", "lam"),
                             ("classifier", "beta1"), ("dataset", "seed"),
                             ("classifier", "latent_dim"), ("classifier", "recon_mse_target"),
                             *((s, k) for s in ("generator", "autoencoders")
                               for k in ("dropout", "early_stop_accuracy", "min_accuracy"))):
            with pytest.raises(ConfigError, match=key):
                parse_text(f"[{section}]\n{key} = 1\n")

    @pytest.mark.parametrize("text", ["[run]\nseed = seven\n", "[run]\nalpha = 0.7\n",
                                      "[classifier]\nhidden = 64,x\n",
                                      "[baselines]\nlambda_sweep = 10.0,10\n",
                                      "[autoencoders]\nepochs = 0\n"])
    def test_bad_values_raise_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_text(text)

    @pytest.mark.parametrize("text,message", [
        ("[run]\nseed = -1\n", "[run] seed must be at least 0, got -1"),
        ("[dataset]\nside = 8\n", "[dataset] frame side must be at least 12 pixels"),
        ("[dataset]\nthickness_max = 9\n", "[dataset] "),
        ("[dataset]\nintensity_min = 0.9\nintensity_max = 0.8\n",
         "[dataset] bad intensity range"),
        ("[pipeline]\ninvert_restarts = 0\n",
         "[pipeline] invert_restarts must be at least 1, got 0"),
        ("[pipeline]\ninvert_steps = -5\n", "[pipeline] invert_steps must be at least 0, got -5"),
        ("[pipeline]\nascent_max_steps = -1\n",
         "[pipeline] ascent_max_steps must be at least 0, got -1"),
        ("[pipeline]\nvisualize_steps = -1\n",
         "[pipeline] visualize_steps must be at least 0, got -1"),
        ("[metrics]\nknn_k = 0\n", "[metrics] knn_k must be at least 1, got 0"),
        ("[dataset]\nn_train_per_class = 0\n",
         "[dataset] n_train_per_class must be at least 30, got 0"),
        ("[dataset]\nn_test_per_class = -2\n",
         "[dataset] n_test_per_class must be at least 1, got -2"),
        # numpy refused these only as train or datagen ran, with a traceback
        *((f"[{s}]\nseed = -1\n", f"[{s}] seed must be at least 0, got -1") for s in _TRAIN),
        ("[dataset]\ntranslate_jitter = -1\n",
         "[dataset] translate_jitter must be at least 0, got -1"),
        ("[run]\nalpha = 0.7\n", "[run] alpha must be in (0, 0.5), got 0.7"),
        *((f"[pipeline]\n{k}_lr = -1\n", f"[pipeline] {k}_lr must be at least 0, got -1.0")
          for k in ("invert", "ascent", "visualize")),
    ], ids=["seed", "side", "thickness_max", "intensity", "invert_restarts", "invert_steps",
            "ascent_max_steps", "visualize_steps", "knn_k", "n_train_per_class",
            "n_test_per_class", *(f"{s}-seed" for s in _TRAIN), "translate_jitter", "alpha",
            "invert_lr", "ascent_lr", "visualize_lr"])
    def test_out_of_range_value_refused_at_parse(self, text, message):
        # a negative step budget would never end its search, so it is only
        # ever tested here, where it is refused
        with pytest.raises(ConfigError) as exc:
            parse_text(text)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("section,key,raw", [
        ("baselines", "lambda", "nan"),
        ("baselines", "lr", "inf"),
        ("classifier", "lr", "nan"),
        ("pipeline", "invert_lr", "nan"),
        # a NaN threshold would silently empty the close-correct bucket
        ("experiment", "close_correct_max_prob", "nan"),
        ("baselines", "lambda_sweep", "1.0,inf"),
    ])
    def test_non_finite_floats_refused(self, section, key, raw):
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: .*not a finite number"):
            parse_text(f"[{section}]\n{key} = {raw}\n")

    @pytest.mark.parametrize("text,message", [
        ("[classifier]\ndropout = 1.0\n", "[classifier] dropout must be in [0, 1), got 1.0"),
        ("[classifier]\ndropout = -0.1\n", "[classifier] dropout must be in [0, 1), got -0.1"),
        ("[dataset]\nn_classes = 1\n", "[dataset] n_classes must be in 2..4"),
        ("[generator]\nlatent_dim = 300\n",
         "[generator] latent_dim must be below the frame's 256 pixels, got 300"),
        ("[autoencoders]\nlatent_dim = 256\n",
         "[autoencoders] latent_dim must be below the frame's 256 pixels, got 256"),
        # the frame's size comes from [dataset], parsed first
        ("[dataset]\nside = 12\n[generator]\nlatent_dim = 144\n",
         "[generator] latent_dim must be below the frame's 144 pixels, got 144"),
        ("[metrics]\nknn_k = 100000\n",
         "[metrics] knn_k must be at most the 1000 training images, got 100000"),
        ("[dataset]\nn_train_per_class = 30\nn_classes = 2\n[metrics]\nknn_k_extra = 61\n",
         "[metrics] knn_k_extra must be at most the 60 training images, got 61"),
    ], ids=["dropout-1", "dropout-negative", "n_classes", "generator-latent",
            "autoencoders-latent", "latent-of-side", "knn_k", "knn_k_extra"])
    def test_value_a_later_stage_refuses_is_refused_at_parse(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_text(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text", [
        "[classifier]\ndropout = 0.0\n",
        "[generator]\nlatent_dim = 255\n",
        "[dataset]\nn_train_per_class = 30\nn_classes = 2\n[metrics]\nknn_k = 60\n",
    ], ids=["dropout-0", "latent-255", "knn_k-60"])
    def test_values_at_the_bounds_parse(self, text):
        parse_text(text)
