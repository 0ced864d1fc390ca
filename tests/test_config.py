"""Config dataclasses: JSON round trip and option resolution defaults."""

import json
from dataclasses import asdict

from hypothesis import given
from hypothesis import strategies as st

from radnet.cli import _resolve, build_parser
from radnet.model import VARIANTS, RadNetConfig
from radnet.pipeline import PotConfig
from radnet.training import TrainConfig

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-12, max_value=1e3, allow_nan=False)
small = st.integers(min_value=0, max_value=1000)
pos_int = st.integers(min_value=1, max_value=1000)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
non_negative = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


radnet_configs = st.builds(
    RadNetConfig,
    n_nodes=pos_int,
    n_features=st.integers(min_value=1, max_value=16),
    window=pos_int,
    horizon=pos_int,
    variant=st.sampled_from(VARIANTS),
    gat_heads=pos_int,
    transformer_heads=st.none() | pos_int,
    encoder_hidden=pos_int,
    decoder_widths=st.lists(pos_int, max_size=4),
    dropout=unit,
    seed=small,
)

train_configs = st.builds(
    TrainConfig,
    lr=positive,
    weight_decay=non_negative,
    max_epochs=pos_int,
    patience=pos_int,
    folds=st.integers(min_value=2, max_value=50),
    batch=pos_int,
    seed=small,
    betas=st.tuples(unit, unit),
    eps=positive,
    autoregressive_horizon=small,
    teacher_forcing_p=st.floats(min_value=0.0, max_value=1.0),
)

pot_configs = st.builds(
    PotConfig,
    percentile=finite,
    risk_q=finite,
    delta_per_horizon=finite,
    horizon_index=small,
    dynamic=st.booleans(),
    refit_every=pos_int,
)


@given(st.one_of(radnet_configs, train_configs, pot_configs))
def test_json_round_trip(config):
    raw = json.loads(json.dumps(asdict(config)))
    assert type(config)(**raw) == config


def test_resolver_defaults_are_the_dataclass_defaults():
    parser = build_parser()
    ablate = parser.parse_args(["ablate", "--data", "ds"])
    detect = parser.parse_args(["detect", "--data", "ds", "--checkpoint", "ck"])
    assert _resolve(TrainConfig, ablate, {}, "train") == TrainConfig()
    assert _resolve(PotConfig, ablate, {}, "pot") == PotConfig()
    assert _resolve(PotConfig, detect, {}, "pot") == PotConfig()
    assert _resolve(RadNetConfig, ablate, {}, n_nodes=4, n_features=2) == RadNetConfig(
        n_nodes=4, n_features=2
    )
