"""The in-package config check against the JSON Schema it replaced.

`REFERENCE_SCHEMA` is the schema the CLI validated with through jsonschema.
On a corpus of broken configs, the rule table must report the same JSON
pointers. Its one addition is that every number must be finite, so a NaN or
an infinity is also reported at its own pointer. Both have since dropped the
`output_dir` key: `--output` alone names the output directory.
"""

import copy
import math

import pytest
from jsonschema import Draft202012Validator

from stackgame import cli, noise_model
from stackgame.strategy import ADVERSARY_FAMILIES, DC_FAMILIES, DEFAULT_UTILITY

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "start": {"type": "number"},
        "stop": {"type": "number"},
        "step": {"type": "number", "exclusiveMinimum": 0},
        "num": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}
_NUMBERS = {"type": "array", "items": {"type": "number"}}
_PARAM_SCHEMAS = {"sigma": {"type": "number", "exclusiveMinimum": 0}, "csv": {"type": "string"},
                  "xs": _NUMBERS, "pdf": _NUMBERS}


def _choice_schema(key, params_of, default, **properties):
    """An object whose `key` picks a row of params_of: it takes that row's params, typed.

    An omitted key is the default choice, so its case matches without it.
    """
    cases = []
    for choice, names in params_of.items():
        case = {"properties": {key: {"const": choice}}}
        if choice != default:
            case["required"] = [key]
        params = {"properties": {n: _PARAM_SCHEMAS.get(n, {"type": "number"}) for n in names},
                  "additionalProperties": False}
        cases.append({"if": case, "then": {"properties": {"params": params}}})
    return {
        "type": "object",
        "properties": {key: {"enum": list(params_of)}, "params": {"type": "object"},
                       **properties},
        "additionalProperties": False,
        "allOf": cases,
    }


REFERENCE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "honest_noise": _choice_schema("kind", {k: names for k, (names, _)
                                                in noise_model.KINDS.items()}, "uniform",
                                       delta={"type": "number", "exclusiveMinimum": 0}),
        "eta_grid": _GRID_SCHEMA,
        "alpha_grid": _GRID_SCHEMA,
        "report_alphas": _GRID_SCHEMA,
        "utility": {
            "type": "object",
            "properties": {
                role: _choice_schema("family", {f: names for f, (names, _) in families.items()},
                                     DEFAULT_UTILITY[role]["family"])
                for role, families in (("adversary", ADVERSARY_FAMILIES), ("dc", DC_FAMILIES))
            },
            "additionalProperties": False,
        },
        "simulation": {
            "type": "object",
            "properties": {
                "n_nodes": {"type": "array", "items": {"type": "integer", "minimum": 2},
                            "minItems": 1},
                "trials": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "chunk_size": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "envelope": {
            "type": "object",
            "properties": {"grid_size": {"type": "integer", "minimum": 33}},
            "additionalProperties": False,
        },
        "oracle": {
            "type": "object",
            "properties": {"grid_size": {"type": "integer", "minimum": 64}},
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}
_REFERENCE = Draft202012Validator(REFERENCE_SCHEMA)

_GRID = {"values": [2.0, 2.5], "start": 2.0, "stop": 3.0, "step": 0.5, "num": 3}
_PARAMS = {"uniform": {}, "triangular": {}, "truncated-normal": {"sigma": 0.5},
           "tabulated": {"csv": "table.csv", "xs": [-1.0, 0.0, 1.0], "pdf": [0.5, 1.0, 0.5]},
           "scaled_product": {"c": 1.0}, "weighted_sum": {"a": 1.0, "b": 2.0},
           "linear_penalty": {"gamma": 1.0}, "exp_penalty": {"s": 3.0}}


def _full(kind, adversary, dc):
    """A config that sets every key, with the given noise kind and utility families."""
    return copy.deepcopy({  # no list or object shared between keys
        "honest_noise": {"kind": kind, "delta": 1.0, "params": _PARAMS[kind]},
        **{key: copy.deepcopy(_GRID) for key in ("eta_grid", "alpha_grid", "report_alphas")},
        "utility": {"adversary": {"family": adversary, "params": _PARAMS[adversary]},
                    "dc": {"family": dc, "params": _PARAMS[dc]}},
        "simulation": {"n_nodes": [2, 3], "trials": 10, "seed": 0, "chunk_size": 8},
        "envelope": {"grid_size": 64},
        "oracle": {"grid_size": 64},
    })


FULL_CONFIGS = [_full("truncated-normal", "scaled_product", "linear_penalty"),
                _full("tabulated", "weighted_sum", "exp_penalty")]
# 32 and 63 sit just below the two grid minimums
VALUES = [True, None, "1", -1, 0, 0.5, 1.5, 2, 32, 33, 63, 64, 1e5, [], [1.5], ["a"], {},
          {"z": 1}]


def _paths(value, path=()):
    """The path of every object key and array item inside value."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _objects(value, path=()):
    if isinstance(value, dict):
        yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _objects(item, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _with(config, path, value=None, delete=False):
    out = copy.deepcopy(config)
    parent = _at(out, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def _choices():
    """Each noise kind and utility family, and unknown and omitted ones, with the
    params of every choice, with wrong types, empty and missing."""
    noise_params = [*(_PARAMS[k] for k in noise_model.KINDS),
                    {"sigma": "0.5"}, {"sigma": -1}, {"xs": "a", "pdf": [1, "b"]}, {"csv": 5}]
    utility_params = [*(_PARAMS[f] for f in [*ADVERSARY_FAMILIES, *DC_FAMILIES]),
                      {"c": "1"}, {"a": None, "b": [2]}, {"gamma": True}, {"s": {}}]
    for kind in [*noise_model.KINDS, "nope", None]:
        for params in [*noise_params, None]:
            spec = {} if kind is None else {"kind": kind}
            if params is not None:
                spec["params"] = params
            yield {"honest_noise": spec}
    for role, families in (("adversary", ADVERSARY_FAMILIES), ("dc", DC_FAMILIES)):
        for family in [*families, "nope", None]:
            for params in [*utility_params, None]:
                spec = {} if family is None else {"family": family}
                if params is not None:
                    spec["params"] = params
                yield {"utility": {role: spec}}


def corpus():
    for full in FULL_CONFIGS:
        yield full
        for path in _paths(full):
            for value in VALUES:
                yield _with(full, path, value)
            if not isinstance(path[-1], int):
                yield _with(full, path, delete=True)
        for path in _objects(full):
            yield _with(full, path + ("unexpected",), 1) if path else {**full, "unexpected": 1}
    yield from _choices()


def _pointer(path):
    return "/" + "/".join(map(str, path))


def reference(config):
    """The distinct pointers the schema reports, sorted, and the unknown keys it
    names at each. It may report one value twice, by its type and its minimum."""
    errors = list(_REFERENCE.iter_errors(config))
    unknown = {_pointer(e.absolute_path): sorted(e.instance.keys() - e.schema["properties"])
               for e in errors if e.validator == "additionalProperties"}
    return sorted({_pointer(e.absolute_path) for e in errors}), unknown


def test_the_rules_report_the_schemas_pointers():
    configs = list(corpus())
    assert len(configs) > 2000
    mismatches, broken = [], 0
    for config in configs:
        want, unknown = reference(config)
        broken += bool(want)
        problems = cli._problems(config)
        pointers = [_pointer(path) for path, _ in problems]
        if sorted(pointers) != want:  # one problem per pointer, at the schema's pointers
            mismatches.append((config, pointers, want))
        for path, message in problems:
            # each message names the unknown keys, or the bad value
            if message.startswith("unknown keys"):
                assert message == f"unknown keys {unknown.get(_pointer(path))}", message
            else:
                assert message.endswith(f"got {_at(config, path)!r}"), message
    assert not mismatches, mismatches[:5]
    assert broken > 1400


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "too-large-for-a-float"])
def test_a_non_finite_number_is_reported_at_its_own_pointer(value):
    checked = 0
    for full in FULL_CONFIGS:
        for path in _paths(full):
            if isinstance(_at(full, path), (dict, list, str)):
                continue
            config = _with(full, path, value)
            want = sorted(set(reference(config)[0]) | {_pointer(path)})
            assert sorted(_pointer(p) for p, _ in cli._problems(config)) == want, path
            checked += 1
    assert checked > 40


def test_full_configs_pass():
    for full in FULL_CONFIGS:
        assert cli._problems(full) == [] and reference(full) == ([], {})
