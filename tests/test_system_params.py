"""The exact error texts of the system parameters, ``make_system`` and the
posterior check, and the order the checks run in."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

from royale_ratings.core import DomainError
from royale_ratings.elo import EloParams, EloSystem
from royale_ratings.glicko import GlickoParams, GlickoSystem
from royale_ratings.systems import RatingTable, make_system
from royale_ratings.trueskill import TrueSkillParams, TrueSkillSystem

from conftest import quick_match

PARAMS = {"elo": EloParams, "glicko": GlickoParams, "trueskill": TrueSkillParams}

# every numeric field with its rule, in the order the fields are checked
RULES = [
    ("elo", "k_factor", "> 0"),
    ("elo", "d_scale", "> 0"),
    ("elo", "default_rating", "finite"),
    ("glicko", "default_mu", "finite"),
    ("glicko", "default_sigma", "> 0"),
    ("glicko", "q_constant", "> 0"),
    ("trueskill", "default_mu", "finite"),
    ("trueskill", "default_sigma", "> 0"),
    ("trueskill", "beta", "> 0"),
    ("trueskill", "tau_dynamics", ">= 0"),
]


def expected_text(field: str, rule: str, shown: str) -> str:
    if rule == "finite":
        return f"{field} must be finite"
    return f"{field} must be finite and {rule}, got {shown}"


def raised_text(name: str, **fields: object) -> str:
    with pytest.raises(DomainError) as exc:
        PARAMS[name](**fields)
    return str(exc.value)


def test_every_numeric_field_has_a_rule():
    numeric = [
        (name, field.name)
        for name, params in PARAMS.items()
        for field in fields(params)
        if field.type == "float"
    ]
    assert numeric == [(name, field) for name, field, _ in RULES]


@pytest.mark.parametrize("name, field, rule", RULES)
@pytest.mark.parametrize(
    "value, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]
)
def test_non_finite_text(name, field, rule, value, shown):
    assert raised_text(name, **{field: value}) == expected_text(field, rule, shown)


@pytest.mark.parametrize("name, field, rule", RULES)
@pytest.mark.parametrize("value, shown", [(0.0, "0.0"), (-1.0, "-1.0"), (0, "0")])
def test_bound_text(name, field, rule, value, shown):
    if rule == "finite" or (rule == ">= 0" and value == 0):
        assert getattr(PARAMS[name](**{field: value}), field) == value
    else:
        assert raised_text(name, **{field: value}) == expected_text(field, rule, shown)


@pytest.mark.parametrize(
    "name, fields, text",
    [
        (
            "elo",
            {"default_rating": math.nan, "d_scale": -1.0, "k_factor": 0.0},
            "k_factor must be finite and > 0, got 0.0",
        ),
        (
            "glicko",
            {"q_constant": math.inf, "default_sigma": 0.0},
            "default_sigma must be finite and > 0, got 0.0",
        ),
        (
            "trueskill",
            {"member_share": "x", "tau_dynamics": -1.0, "beta": math.nan},
            "beta must be finite and > 0, got nan",
        ),
        (
            "trueskill",
            {"member_share": "x", "tau_dynamics": -1.0},
            "tau_dynamics must be finite and >= 0, got -1.0",
        ),
    ],
)
def test_first_bad_field_in_field_order_is_named(name, fields, text):
    assert raised_text(name, **fields) == text


def test_member_share_text():
    assert raised_text("trueskill", member_share="x") == (
        "member_share must be one of ('sigma_sq', 'mu'), got 'x'"
    )


def test_make_system_texts():
    with pytest.raises(ValueError) as exc:
        make_system("prevrank", k_factor=1.0)
    assert str(exc.value) == "prevrank takes no parameters"
    with pytest.raises(ValueError) as exc:
        make_system("glicko2")
    assert str(exc.value) == (
        "unknown rating system 'glicko2', expected one of "
        "('elo', 'glicko', 'trueskill', 'prevrank')"
    )
    with pytest.raises(DomainError) as exc:
        make_system("elo", k_factor=-1.0)
    assert str(exc.value) == "k_factor must be finite and > 0, got -1.0"
    with pytest.raises(TypeError):
        make_system("elo", beta=1.0)


def spoiled(system_class, column: str, member: int, value: float):
    """The system with one member's posterior ``column`` set to ``value``."""

    class Spoiled(system_class):
        def _apply(self, block):
            posterior = dict(zip(("mu", "sigma"), super()._apply(block)))
            matrix = np.array(posterior[column])
            teams, places = np.nonzero(block.mask)
            matrix[teams[member], places[member]] = value
            posterior[column] = matrix
            return posterior["mu"], posterior["sigma"]

    return Spoiled()


@pytest.mark.parametrize(
    "system_class, column, value, text",
    [
        (
            EloSystem,
            "mu",
            math.inf,
            "elo update failed (player mu must be finite, got inf)",
        ),
        (
            EloSystem,
            "mu",
            -math.inf,
            "elo update failed (player mu must be finite, got -inf)",
        ),
        (
            EloSystem,
            "mu",
            math.nan,
            "elo update failed (player mu must be finite, got nan)",
        ),
        (
            GlickoSystem,
            "sigma",
            0.0,
            "glicko update failed (player sigma must be positive, got 0.0)",
        ),
        (
            GlickoSystem,
            "sigma",
            math.nan,
            "glicko update failed (player sigma must be positive, got nan)",
        ),
        (
            TrueSkillSystem,
            "sigma",
            -1.0,
            "trueskill update failed (player sigma must be positive, got -1.0)",
        ),
        (
            TrueSkillSystem,
            "sigma",
            -0.0,
            "trueskill update failed (player sigma must be positive, got -0.0)",
        ),
        (
            TrueSkillSystem,
            "mu",
            math.nan,
            "trueskill update failed (player mu must be finite, got nan)",
        ),
    ],
)
@pytest.mark.parametrize("as_table", [False, True], ids=["dict", "table"])
def test_bad_posterior_text_leaves_state_unchanged(
    system_class, column, value, text, as_table
):
    system = spoiled(system_class, column, 3, value)
    match = quick_match([2, 1, 3], team_size=2)
    ratings = {p: system.initial_rating() for p in match.players()}
    state = RatingTable(ratings) if as_table else dict(ratings)
    with pytest.raises(DomainError) as exc:
        system.update_match(state, match, 0)
    assert str(exc.value) == f"match 'm1': {text}"
    assert state == ratings


def test_first_bad_member_is_named_mu_before_sigma():
    class TwoBad(GlickoSystem):
        def _apply(self, block):
            mu, sigma = super()._apply(block)
            mu, sigma = np.array(mu), np.array(sigma)
            sigma[0, 1] = -2.0  # the second member of the first team
            mu[1, 0] = math.inf  # a later member
            sigma[1, 0] = 0.0
            return mu, sigma

    match = quick_match([1, 2], team_size=2)
    state = RatingTable({p: TwoBad().initial_rating() for p in match.players()})
    before = dict(state)
    with pytest.raises(DomainError) as exc:
        TwoBad().update_match(state, match, 0)
    assert str(exc.value) == (
        "match 'm1': glicko update failed (player sigma must be positive, got -2.0)"
    )
    assert state == before

    class SameMember(GlickoSystem):
        def _apply(self, block):
            mu, sigma = super()._apply(block)
            mu, sigma = np.array(mu), np.array(sigma)
            mu[0, 1], sigma[0, 1] = math.nan, -2.0
            return mu, sigma

    with pytest.raises(DomainError) as exc:
        SameMember().update_match(state, match, 0)
    assert str(exc.value) == (
        "match 'm1': glicko update failed (player mu must be finite, got nan)"
    )
    assert state == before
