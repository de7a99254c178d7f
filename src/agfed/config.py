"""Experiment config files: INI sections [task], [algorithm],
[secure_aggregation] and [output]; any key can be overridden by its dotted
name (``--set task.p=5``).

One table per section maps each key to its parser and is the only list of
keys: an unknown key (or a [task] key the configured kind does not read) is
rejected so a typo cannot silently fall back to a default, and a value that
fails to parse is reported with its dotted name. A key left out is not
passed on, so every default is the dataclasses' own.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .client import LocalSGDConfig
from .core import InvalidArgument
from .harness import ExperimentConfig
from .server import AggregationSettings, AlgorithmConfig
from .tasks import TaskConfig

_SECTIONS = ("task", "algorithm", "secure_aggregation", "output")


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidArgument(f"expected a boolean, got {value!r}")


def _parse_floats(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in value.replace(",", " ").split())


def _parse_samples(value: str) -> int | tuple[int, int]:
    lo, colon, hi = value.partition(":")
    return (int(lo), int(hi)) if colon else int(value)


# [task] keys every kind reads; all of them are required
_TASK = {"kind": str, "p": int, "num_clients": int, "seed": int, "partition": str}
# the [task] keys that only one kind reads
_TASK_KIND = {
    "toy-regression": {"centers": _parse_floats, "points_per_domain": int, "spread": float,
                       "init_value": float},
    "synthetic-classification": {"samples_per_client": _parse_samples, "margins": _parse_floats,
                                 "shares": _parse_floats, "mixing": _parse_floats,
                                 "noise": float, "input_dim": int},
}
_ALGORITHM = {"algorithm": str, "lambda_update": str, "scaling_mode": str,
              "clients_per_round": int, "rounds": int, "lambda_lr": float, "window_len": int}
# [algorithm] keys that configure AlgorithmConfig.local
_LOCAL_SGD = {"epochs": int, "batch_size": int, "learning_rate": float}
_SECURE_AGGREGATION = {"mask_stats": _parse_bool, "mask_params": _parse_bool, "scale_bits": int}
# [output] key -> (ExperimentConfig field, parser)
_OUTPUT = {"dir": ("out_dir", str), "csv": ("csv_name", str), "plots": ("plots", _parse_bool)}


def _parse(section: str, table: dict, raw: dict[str, str], where: str = "") -> dict:
    """Each key's parsed value; a key the table lacks is rejected."""
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise InvalidArgument(f"unknown keys in [{section}]{where}: {unknown}")
    parsed = {}
    for key, value in raw.items():
        try:
            parsed[key] = table[key](value)
        except ValueError as exc:  # InvalidArgument included
            raise InvalidArgument(f"{section}.{key}: {exc}") from exc
    return parsed


def load_config(
    path: str | Path,
    overrides: dict[str, str] | None = None,
    *,
    seed: int | None = None,
    out_dir: str | None = None,
) -> ExperimentConfig:
    """Parse a config file, apply dotted-name overrides, and validate."""
    # a section header cannot hold a line break, so no file can name the
    # default section and a [DEFAULT] section is an unknown one; values are
    # taken as written, as --set takes them, so a '%' in one is literal
    parser = configparser.ConfigParser(default_section="\n", interpolation=None)
    try:
        if not parser.read(str(path)):
            raise InvalidArgument(f"cannot read config file {path}")
        sections = {section: parser.items(section) for section in parser.sections()}
    except configparser.Error as exc:  # its message may span several lines
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise InvalidArgument(f"cannot parse config file {path}: {message}") from exc

    values: dict[str, dict[str, str]] = {s: {} for s in _SECTIONS}
    for section, items in sections.items():
        if section not in _SECTIONS:
            raise InvalidArgument(f"unknown config section [{section}]")
        values[section].update(items)

    for dotted, value in (overrides or {}).items():
        if "." not in dotted:
            raise InvalidArgument(f"override {dotted!r} is not of the form section.key")
        section, key = dotted.split(".", 1)
        if section not in _SECTIONS:
            raise InvalidArgument(f"unknown config section {section!r} in override")
        values[section][key] = value

    if seed is not None:
        values["task"]["seed"] = str(seed)
    if out_dir is not None:
        values["output"]["dir"] = out_dir

    for required in _TASK:
        if required not in values["task"]:
            raise InvalidArgument(f"[task] is missing required key {required!r}")
    kind = values["task"]["kind"]
    if kind not in _TASK_KIND:
        raise InvalidArgument(f"unknown task kind {kind!r}")
    task = _parse("task", {**_TASK, **_TASK_KIND[kind]}, values["task"], f" for kind {kind!r}")

    algorithm = _parse("algorithm", {**_ALGORITHM, **_LOCAL_SGD}, values["algorithm"])
    local = LocalSGDConfig(**{k: algorithm.pop(k) for k in _LOCAL_SGD if k in algorithm})
    output = _parse("output", {k: parse for k, (_, parse) in _OUTPUT.items()}, values["output"])
    return ExperimentConfig(
        task=TaskConfig(**task),
        algorithm=AlgorithmConfig(**algorithm, local=local),
        aggregation=AggregationSettings(
            **_parse("secure_aggregation", _SECURE_AGGREGATION, values["secure_aggregation"])),
        **{_OUTPUT[k][0]: v for k, v in output.items()},
    )
