"""Structured-text (INI) configuration files, schema version 1.

A process file has a ``[process]`` section (plus ``[grid]`` for functional
kinds); an experiment file has ``[experiment]``, ``[process]`` and optional
``[process_y]``/``[grid]`` sections.  Each section is read through one key
table mapping every accepted key to its converter: unknown keys are rejected
so typos cannot silently fall back to defaults, and an absent key takes the
default of :class:`ProcessConfig`, :class:`GridSpec` or
:class:`ExperimentConfig`.  Values are read literally (no ``%``
interpolation).  See the README for the documented key set.
"""

from __future__ import annotations

import configparser

from .exceptions import ConfigError
from .generators import ProcessConfig
from .harness import ExperimentConfig, GridSpec

SCHEMA = 1


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_coefficients(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


# Accepted keys and their converters, in the order values are converted.
# ``schema`` maps to None: it is no field; a file's leading section checks it.
_PROCESS = {
    "schema": None, "kind": str.strip, "phi": float, "coefficients": _to_coefficients,
    "basis_size": int, "innovation": str.strip, "t_df": float, "seed": int, "burn_in": int,
}
_GRID = {"points": int, "lo": float, "hi": float, "weight": float}
_EXPERIMENT = {
    "schema": None, "statistic": str.strip, "n": int, "replicates": int, "replications": int,
    "level": float, "master_seed": int, "block_length": int, "exponent": float,
    "dyadic_freeze": _to_bool, "mean_shift": float, "null": str.strip,
}


def _read(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    return parser


def _check_keys(section, table: dict, where: str) -> None:
    unknown = set(section.keys()) - table.keys()
    if unknown:
        raise ConfigError(f"unknown keys in [{where}]: {', '.join(sorted(unknown))}")


def _head(parser, name: str, table: dict, path: str):
    """The file's leading section ``name``, with its keys and schema checked."""
    if name not in parser:
        raise ConfigError(f"{path!r} has no [{name}] section")
    section = parser[name]
    _check_keys(section, table, name)
    if "schema" not in section:
        raise ConfigError(f"[{name}] must carry 'schema = {SCHEMA}'")
    if section.get("schema").strip() != str(SCHEMA):
        raise ConfigError(
            f"unsupported schema {section.get('schema')!r} in [{name}]; this version reads schema {SCHEMA}"
        )
    return section


def _check_sections(parser, allowed: set) -> None:
    extra = set(parser.sections()) - allowed
    if extra:
        raise ConfigError(f"unexpected sections: {', '.join(sorted(extra))}")


def _convert(section, table: dict) -> dict:
    """The keys present in ``section``, each through its converter in ``table``."""
    values = {}
    for key, conv in table.items():
        if conv is not None and key in section:
            raw = section.get(key).strip()
            try:
                values[key] = conv(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    return values


def parse_process_section(section, where: str = "process") -> ProcessConfig:
    _check_keys(section, _PROCESS, where)
    if "kind" not in section:
        raise ConfigError(f"[{where}] needs a 'kind'")
    return ProcessConfig(**_convert(section, _PROCESS))


def _grid(parser) -> GridSpec | None:
    if "grid" not in parser:
        return None
    section = parser["grid"]
    _check_keys(section, _GRID, "grid")
    if "points" not in section:
        raise ConfigError("[grid] needs 'points'")
    return GridSpec(**_convert(section, _GRID))


def load_process_config(path: str) -> tuple[ProcessConfig, GridSpec | None]:
    """Read a process file: ([process], optional [grid])."""
    parser = _read(path)
    process = parse_process_section(_head(parser, "process", _PROCESS, path))
    grid = _grid(parser)
    if process.is_functional and grid is None:
        raise ConfigError(f"functional kind {process.kind!r} needs a [grid] section")
    _check_sections(parser, {"process", "grid"})
    return process, grid


def load_experiment_config(path: str) -> ExperimentConfig:
    """Read an experiment file into an :class:`ExperimentConfig`."""
    parser = _read(path)
    section = _head(parser, "experiment", _EXPERIMENT, path)
    if "process" not in parser:
        raise ConfigError(f"{path!r} has no [process] section")
    for required in ("statistic", "n", "replicates", "replications", "level", "master_seed"):
        if required not in section:
            raise ConfigError(f"[experiment] needs {required!r}")
    _check_sections(parser, {"experiment", "process", "process_y", "grid"})
    process = parse_process_section(parser["process"])
    process_y = (parse_process_section(parser["process_y"], "process_y")
                 if "process_y" in parser else None)
    return ExperimentConfig(process=process, process_y=process_y, grid=_grid(parser),
                            **_convert(section, _EXPERIMENT))
