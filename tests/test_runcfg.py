import configparser
import io
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piece.runcfg import (
    ConfigError,
    RunConfig,
    config_ini_text,
    default_config_ini,
    parse_config,
    write_config,
)

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
dropout = 0.25
latent_dim = 8
hidden = 64,32
seed = 18
early_stop_accuracy = 0.97
min_accuracy = 0.85
recon_mse_target = 0.01

[generator]
epochs = 400
batch_size = 32
lr = 0.003
dropout = 0.25
latent_dim = 8
hidden = 96
seed = 29
early_stop_accuracy = 0.97
min_accuracy = 0.85
recon_mse_target = 0.01

[autoencoders]
epochs = 150
batch_size = 32
lr = 0.003
dropout = 0.25
latent_dim = 8
hidden = 64
seed = 40
early_stop_accuracy = 0.97
min_accuracy = 0.85
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
# counts that parse_config rejects below 1
AT_LEAST_ONE = {"invert_restarts", "mc_passes", "knn_k", "knn_k_extra"}


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
        # each sweep value is one report row, so a sweep may not repeat one
        value = st.lists(item, min_size=1, max_size=4, unique=key == "lambda_sweep").map(
            lambda xs: ",".join(str(x) for x in xs)
        )
    elif key == "alpha":
        value = st.floats(0.001, 0.49).map(str)
    elif re.fullmatch(r"\d+", default):
        value = st.integers(int(key in AT_LEAST_ONE), 100000).map(str)
    else:
        value = st.floats(1e-6, 1e6, allow_nan=False).map(str)
    return value.filter(lambda v: v != default)


class TestConfigContract:
    def test_default_echo_is_pinned(self):
        assert default_config_ini() == DEFAULT_INI
        assert len(default_keys()) == 61

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

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[pipeline\].*invert_step"):
            parse_text("[pipeline]\ninvert_step = 10\n")

    def test_renamed_and_hidden_fields_are_not_keys(self):
        for section, key in (("classifier", "dropout_rate"), ("baselines", "lam"),
                             ("classifier", "beta1"), ("dataset", "seed")):
            with pytest.raises(ConfigError, match=key):
                parse_text(f"[{section}]\n{key} = 1\n")

    @pytest.mark.parametrize("text", ["[run]\nseed = seven\n", "[run]\nalpha = 0.7\n",
                                      "[classifier]\nhidden = 64,x\n",
                                      "[baselines]\nlambda_sweep = 10.0,10\n"])
    def test_bad_values_raise_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_text(text)
