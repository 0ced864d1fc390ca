"""Config dataclasses: JSON round trip, named checks and option resolution defaults."""

import json
from dataclasses import asdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radnet.cli import _resolve, build_parser
from radnet.data import IncidentSpec
from radnet.model import VARIANTS, RadNetConfig
from radnet.pipeline import PotConfig
from radnet.training import TrainConfig

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

@st.composite
def pot_configs(draw):
    """Valid settings: the ladder's last percentile, percentile - delta * index, stays positive."""
    percentile = draw(st.floats(min_value=1e-6, max_value=100.0, exclude_max=True))
    horizon_index = draw(small)
    return PotConfig(
        percentile=percentile,
        risk_q=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)),
        delta_per_horizon=draw(unit) * percentile / (horizon_index + 1),
        horizon_index=horizon_index,
        dynamic=draw(st.booleans()),
        refit_every=draw(pos_int),
    )


@given(st.one_of(radnet_configs, train_configs, pot_configs()))
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


@pytest.mark.parametrize("field, value", [
    ("percentile", 0.0), ("percentile", 100.0), ("percentile", 150.0),
    ("percentile", float("nan")), ("risk_q", 0.0), ("risk_q", 1.0), ("refit_every", 0),
    ("horizon_index", -1), ("delta_per_horizon", -0.5),
])
def test_bad_pot_setting_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"{field} must"):
        PotConfig(**{field: value})


def test_pot_ladder_below_zero_rejected():
    with pytest.raises(ValueError, match="effective_percentile must be positive, got -1.0"):
        PotConfig(percentile=99.0, horizon_index=2, delta_per_horizon=50.0)


@pytest.mark.parametrize("field, value", [
    ("count", -1), ("depth", 0.0), ("depth", 1.0), ("depth", 1.5), ("duration", 0),
    ("min_start", -5),
])
def test_bad_incident_setting_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"incident {field} must"):
        IncidentSpec(**{field: value})
