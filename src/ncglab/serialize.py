"""Textual file formats: instances, networks, witnesses, optima, fixtures,
traces, and sweep configs.

Rationals serialize as "p/q" strings (plain integers allowed as shorthand);
infinities as "inf"/"-inf". All dumps are key-sorted JSON so identical data
produces identical bytes. Every loader raises ``LabInputError`` on any file
it cannot read into a value, never a bare ``KeyError`` or ``TypeError``.
"""

import json
from dataclasses import asdict, fields

from .errors import LabInputError, MoveError
from .fixtures import Fixture
from .harness import SweepConfig
from .model import HostGraph, Instance, Network, is_metric, parse_edge
from .scalars import format_rational, parse_bool, parse_int, parse_list
from .stability import CONCEPTS, Budget, Move, _check_shape

INSTANCE_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load(text, what, build):
    """Parse ``text`` and build a value from it, or raise ``LabInputError``.

    A missing field, a value of the wrong type or shape, and invalid JSON
    (a ``ValueError``) all become ``LabInputError``. A ``LabInputError``
    raised by ``build`` is a ``ValueError`` too and passes unchanged.
    """
    try:
        return build(json.loads(text))
    except LabInputError:
        raise
    except KeyError as exc:
        raise LabInputError(f"{what} file is missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise LabInputError(f"malformed {what} file: {exc}") from exc


# -- instances ---------------------------------------------------------------

def instance_to_json(inst: Instance) -> str:
    return _dump(_instance_payload(inst))


def _instance_payload(inst: Instance) -> dict:
    host = inst.host
    return {
        "version": INSTANCE_VERSION,
        "n": host.n,
        "alpha": format_rational(inst.alpha),
        "weights": [
            [format_rational(host.weights[u][v]) for v in range(host.n)]
            for u in range(host.n)
        ],
        "metric_hint": is_metric(host).is_metric,
    }


def instance_from_json(text: str) -> Instance:
    return _load(text, "instance", _instance)


def _instance(data) -> Instance:
    if data.get("version") != INSTANCE_VERSION:
        raise LabInputError(f"unsupported instance version {data.get('version')!r}")
    host = HostGraph(n=data.get("n"), weights=data.get("weights"))
    return Instance(host=host, alpha=data.get("alpha"))


# -- networks -----------------------------------------------------------------

def network_to_json(net: Network) -> str:
    return _dump(_network_payload(net))


def _network_payload(net: Network) -> dict:
    return {"edges": [[u, v] for u, v in net.edges]}


def network_from_json(text: str, n: int) -> Network:
    return _load(text, "network", lambda data: _network(data, n))


def _network(data, n) -> Network:
    edges = parse_list(data.get("edges"), "network 'edges'")
    return Network.from_pairs(n, edges)


# -- witnesses ------------------------------------------------------------------

def _move_payload(move: Move) -> dict:
    return {
        "coalition": list(move.coalition),
        "remove": [[u, v] for u, v in move.removals],
        "add": [[u, v] for u, v in move.additions],
    }


def witness_to_json(move: Move, deltas) -> str:
    """A witness file: the move and its ``stability.move_deltas``."""
    deltas = {str(node): format_rational(delta) for node, delta in deltas}
    return _dump(_move_payload(move) | {"concept": move.concept.upper(), "deltas": deltas})


def witness_from_json(text: str) -> Move:
    return _load(text, "witness", _witness)


def _witness(data) -> Move:
    """A move of a known concept, in the shape ``apply_move`` accepts
    (``stability._check_shape``)."""
    concept = str(data.get("concept", "")).lower()
    if concept not in CONCEPTS:
        raise MoveError(f"unknown witness concept {data.get('concept')!r}")
    move = Move.make(
        coalition=tuple(parse_int(u, "node id") for u in data.get("coalition", ())),
        removals=tuple(parse_edge(e) for e in data.get("remove", ())),
        additions=tuple(parse_edge(e) for e in data.get("add", ())),
        concept=concept,
    )
    _check_shape(move)
    return move


# -- optimum results ---------------------------------------------------------------

def opt_to_json(opt) -> str:
    return _dump(
        _network_payload(opt.network)
        | {"cost": format_rational(opt.cost), "proven": opt.proven}
    )


# -- fixture bundles -------------------------------------------------------------

def fixture_to_json(fixture: Fixture) -> str:
    return _dump(
        {
            "version": INSTANCE_VERSION,
            "family": fixture.family,
            "concept": fixture.claimed_concept.upper(),
            **_family_claims(fixture),
            "expected_ratio": format_rational(fixture.expected_ratio),
            "instance": _instance_payload(fixture.instance),
            "stable_net": _network_payload(fixture.stable_net),
            "reference_net": _network_payload(fixture.reference_net),
        }
    )


def _family_claims(fixture) -> dict:
    """The bundle fields that restate what the fixture's family claims."""
    return {
        "variant": fixture.claimed_concept,
        "asymptotic_only": fixture.ratio_is_asymptotic_only,
        "requires_metric": fixture.requires_metric,
    }


def fixture_from_json(text: str) -> Fixture:
    return _load(text, "fixture", _fixture)


def _fixture(data) -> Fixture:
    """A bundle whose family claims its concept; any restated claim must match."""
    inst = _instance(data["instance"])
    n = inst.n
    fixture = Fixture(
        family=data["family"],
        instance=inst,
        stable_net=_network(data["stable_net"], n),
        reference_net=_network(data["reference_net"], n),
        claimed_concept=str(data["concept"]).lower(),
        expected_ratio=data["expected_ratio"],
    )
    for key, claimed in _family_claims(fixture).items():
        stated = data.get(key, claimed)
        if isinstance(claimed, bool):
            parse_bool(stated, key)
        if stated != claimed:
            raise LabInputError(f"fixture {key} {stated!r} is not {fixture.family}'s {claimed!r}")
    return fixture


# -- traces ----------------------------------------------------------------------

def trace_to_json(trace) -> str:
    return _dump(
        {
            "initial": _network_payload(trace.initial),
            "final": _network_payload(trace.final),
            "outcome": trace.outcome,
            "cycle_start": trace.cycle_start,
            "cycle_period": trace.cycle_period,
            "note": trace.note,
            "steps": [
                _move_payload(move) | {"social_cost": format_rational(cost)}
                for move, cost in trace.steps
            ],
        }
    )


# -- sweep configs ------------------------------------------------------------------

def sweep_config_from_json(text: str) -> SweepConfig:
    return _load(text, "sweep config", _sweep_config)


def _sweep_config(data) -> SweepConfig:
    """``SweepConfig``'s own fields. A file may spell a concept or variant in
    any case, a budget as an object, and no variant or budget as empty."""
    unknown = sorted(set(data) - {f.name for f in fields(SweepConfig)})
    if unknown:
        raise LabInputError(f"unknown sweep config field(s) {unknown}")
    variant, budget = data.get("variant"), data.get("budget")
    spelled = {
        "concept": str(data["concept"]).lower(),
        "variant": str(variant).lower() if variant else None,
        "budget": Budget(**budget) if budget else None,
    }
    return SweepConfig(**data | spelled)


def sweep_config_to_json(cfg: SweepConfig) -> str:
    payload = asdict(cfg) | {"alphas": [format_rational(a) for a in cfg.alphas]}
    if cfg.budget is None:
        del payload["budget"]
    return _dump(payload)
