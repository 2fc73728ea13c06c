"""In-memory triple store keyed by integers.

Entities and relations get dense ids in sorted name order, so no query
depends on the order triples arrive in.  With ``E`` entities and ``R``
relations, fact (h, r, t) is the int ``(h·R + r)·E + t`` in one fact set,
which ``holds`` and ``num_triples`` read.  The adjacency indexes are built
together on the first adjacency query and not before, so a stage that only
checks facts or saves never pays for them: ``_succ`` maps ``h·R + r`` to the
tails, ``_pred`` maps ``t·R + r`` to the heads, ``_rel_pairs`` lists each
relation's (head, tail) pairs and ``_out`` holds per-entity ``out_edges``.
Until then the graph keeps its id triples, which ``save`` writes as they are.

Canonical order: a saved store lists its names strictly ascending and its
triples strictly ascending by (h, r, t).  Read in that order, every id lands
in its list already sorted, so one pass over the id triples builds every
index.  ``load`` checks the order and fills the fact set as it validates; a
hand-made store out of it is remapped and sorted once and loads equal to its
canonical form.

The store is immutable and safe to query from several threads (two threads
that race to build the indexes build equal ones).  Ids are
checked once, where they enter: ``entity_id`` and ``relation_id`` raise
UnknownSymbolError for an unknown name, and ``load`` rejects a triple with
an id out of range.  The graph queries ``tails``, ``heads``,
``relation_pairs``, ``out_edges`` and ``holds`` take ids as given and
return stored sequences without a copy.  An id out of range gives a wrong
answer rather than an error (``holds`` may answer for another fact), so a
caller holding ids from anywhere else checks them at its own boundary.

Triple files are UTF-8 text, one fact per line, with exactly three
tab-separated fields: head entity, relation, tail entity.  Duplicate lines
collapse into one fact.  Blank and whitespace-only lines are ignored.

Relation names may not contain ``(``, ``)``, ``,`` or ``&``: rule encodings
use them as delimiters, and a name holding one can make two rules encode
alike.  Ingest and ``load`` reject such a name as a data error.
"""

from __future__ import annotations

import gc
import json
from collections import defaultdict
from contextlib import contextmanager
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .artifacts import open_text, read_fields, read_json, write_lines
from .errors import DataError, UnknownSymbolError

STORE_FORMAT_VERSION = 1

RESERVED_RELATION_CHARS = frozenset("(),&")


def check_relation_name(name: str) -> None:
    """Raise DataError unless ``name`` is a string free of rule-encoding
    delimiters."""
    if type(name) is not str or not RESERVED_RELATION_CHARS.isdisjoint(name):
        raise DataError(
            f"bad relation name {name!r}: a relation name is a string "
            "without '(', ')', ',' or '&', the delimiters of rule encodings"
        )


@contextmanager
def _gc_paused():
    """Pause cyclic GC, whose passes cost a third of a 100k-triple build."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Triple(NamedTuple):
    """One fact as interned ids; it hashes and sorts as ``(head, relation, tail)``."""

    head: int
    relation: int
    tail: int


class KnowledgeGraph:
    """Immutable triple store over int-keyed successor and predecessor lists."""

    __slots__ = (
        "_entity_names",
        "_relation_names",
        "_entity_ids",
        "_relation_ids",
        "_n_entities",
        "_n_relations",
        "_facts",
        "_triples",
        "_succ",
        "_pred",
        "_rel_pairs",
        "_out",
    )

    def __init__(
        self,
        entity_names: Iterable[str],
        relation_names: Iterable[str],
        name_triples: Iterable[tuple[str, str, str]],
    ):
        # The name lists may contain entities that appear in no triple (they
        # round-trip through saved stores).
        self._intern(sorted(set(entity_names)), sorted(set(relation_names)))
        eids, rids = self._entity_ids, self._relation_ids
        try:
            triples = {(eids[h], rids[r], eids[t]) for h, r, t in name_triples}
        except KeyError as exc:  # pragma: no cover - constructor misuse
            raise UnknownSymbolError(f"symbol not in name tables: {exc}") from exc
        n_ent, n_rel = self._n_entities, self._n_relations
        self._facts = {(h * n_rel + r) * n_ent + t for h, r, t in triples}
        self._triples = sorted(triples)

    def _intern(self, entity_names: list[str], relation_names: list[str]) -> None:
        """Take sorted, distinct name tables; ids are list positions."""
        for name in relation_names:
            check_relation_name(name)
        self._entity_names = entity_names
        self._relation_names = relation_names
        self._entity_ids = {name: i for i, name in enumerate(entity_names)}
        self._relation_ids = {name: i for i, name in enumerate(relation_names)}
        self._n_entities = len(entity_names)
        self._n_relations = len(relation_names)

    def __getattr__(self, name: str):
        # Only an index slot that is not built yet gets here.
        if name == "_out":
            out: dict[int, list[tuple[int, int]]] = {}
            for key in sorted(self._succ):
                h, r = divmod(key, self._n_relations)
                out.setdefault(h, []).extend(zip(repeat(r), self._succ[key]))
            self._out = out
        elif name in ("_succ", "_pred", "_rel_pairs"):
            self._index()
        else:
            raise AttributeError(name)
        return getattr(self, name)

    @_gc_paused()
    def _index(self) -> None:
        """One pass over the kept id triples, in strictly ascending (h, r, t)
        order, builds the adjacency indexes; the triples then go."""
        triples = self._triples
        if triples is None:  # another thread has just built them
            return
        succ: defaultdict[int, list[int]] = defaultdict(list)
        pred: defaultdict[int, list[int]] = defaultdict(list)
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(self._n_relations)]
        n_rel = self._n_relations
        for h, r, t in triples:
            succ[h * n_rel + r].append(t)
            pred[t * n_rel + r].append(h)
            pairs[r].append((h, t))
        self._succ, self._pred, self._rel_pairs = succ, pred, pairs
        self._triples = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "KnowledgeGraph":
        """Build a graph from triple lines.  A line that does not hold three
        non-empty tab-separated fields is an IngestError."""
        # Tuples, as a list from str.split keeps room for 12 items.
        rows = list(map(tuple, read_fields(lines, 3, "triple")))
        heads, relations, tails = (map(itemgetter(i), rows) for i in range(3))
        return cls(chain(heads, tails), relations, rows)

    @classmethod
    @_gc_paused()
    def from_file(cls, path: str | Path) -> "KnowledgeGraph":
        with open_text(path) as fh:
            return cls.from_lines(fh)

    # ------------------------------------------------------------------
    # vocabulary

    @property
    def num_entities(self) -> int:
        return self._n_entities

    @property
    def num_relations(self) -> int:
        return self._n_relations

    @property
    def num_triples(self) -> int:
        return len(self._facts)

    def entity_id(self, name: str) -> int:
        try:
            return self._entity_ids[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown entity: {name!r}") from None

    def relation_id(self, name: str) -> int:
        try:
            return self._relation_ids[name]
        except KeyError:
            raise UnknownSymbolError(f"unknown relation: {name!r}") from None

    def entity_name(self, eid: int) -> str:
        self._check_entity(eid)
        return self._entity_names[eid]

    def relation_name(self, rid: int) -> str:
        self._check_relation(rid)
        return self._relation_names[rid]

    def has_entity(self, name: str) -> bool:
        return name in self._entity_ids

    def has_relation(self, name: str) -> bool:
        return name in self._relation_ids

    def entity_names(self) -> list[str]:
        return list(self._entity_names)

    def relation_names(self) -> list[str]:
        return list(self._relation_names)

    def _check_entity(self, eid: int) -> None:
        if not 0 <= eid < self._n_entities:
            raise UnknownSymbolError(f"entity id out of range: {eid}")

    def _check_relation(self, rid: int) -> None:
        if not 0 <= rid < self._n_relations:
            raise UnknownSymbolError(f"relation id out of range: {rid}")

    # ------------------------------------------------------------------
    # queries

    def stats(self) -> dict[str, int]:
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "triples": self.num_triples,
        }

    # ------------------------------------------------------------------
    # adjacency and membership: valid ids only, results must not be mutated

    def tails(self, eid: int, rid: int) -> Sequence[int]:
        """Tails reachable from ``eid`` via relation ``rid``, ascending."""
        return self._succ.get(eid * self._n_relations + rid, ())

    def heads(self, eid: int, rid: int) -> Sequence[int]:
        """Heads that reach ``eid`` via relation ``rid``, ascending."""
        return self._pred.get(eid * self._n_relations + rid, ())

    def relation_pairs(self, rid: int) -> Sequence[tuple[int, int]]:
        """All (head, tail) entity pairs of a relation, ascending."""
        return self._rel_pairs[rid]

    def out_edges(self, eid: int) -> Sequence[tuple[int, int]]:
        """Outgoing edges of ``eid`` as (relation id, tail id) pairs, in
        canonical order: ascending relation id, then tail id."""
        return self._out.get(eid, ())

    def max_out_degree(self) -> int:
        """The most tails any entity has under one relation."""
        return max(map(len, self._succ.values()), default=0)

    def holds(self, head: int, rid: int, tail: int) -> bool:
        """Whether the fact (head, rid, tail) is in the graph."""
        return (head * self._n_relations + rid) * self._n_entities + tail in self._facts

    # ------------------------------------------------------------------
    # persistence

    def save(self, path: str | Path) -> None:
        triples = self._triples
        if triples is None:
            # Indexed already: decode the facts, whose ints sort canonically.
            n_ent, n_rel = self._n_entities, self._n_relations
            triples = [
                (*divmod(key // n_ent, n_rel), key % n_ent)
                for key in sorted(self._facts)
            ]
        payload = {
            "format_version": STORE_FORMAT_VERSION,
            "entities": self._entity_names,
            "relations": self._relation_names,
            "triples": triples,
        }
        # json.dumps runs the C encoder; json.dump would not.
        write_lines(
            path, [json.dumps(payload, separators=(",", ":"), ensure_ascii=False)]
        )

    @classmethod
    @_gc_paused()
    def load(cls, path: str | Path) -> "KnowledgeGraph":
        payload = read_json(path, "store")
        version = payload.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise DataError(
                f"unsupported store format version {version!r} in {path}"
            )
        entities, relations, triples = (
            payload.get(key) for key in ("entities", "relations", "triples")
        )
        for field, names in (("entities", entities), ("relations", relations)):
            if not isinstance(names, list) or not all(
                type(name) is str and name for name in names
            ) or len(set(names)) != len(names):
                raise DataError(
                    f"{path}: {field!r} must list distinct, non-empty strings"
                )
        if not isinstance(triples, list):
            raise DataError(f"{path}: 'triples' must be a list")
        n_ent, n_rel = len(entities), len(relations)
        facts: set[int] = set()
        add_fact = facts.add
        canonical = True
        last = -1
        for triple in triples:
            if type(triple) is not list or len(triple) != 3:
                raise DataError(f"{path}: a triple must be three ids: {triple!r}")
            h, r, t = triple
            if not (
                type(h) is int and type(r) is int and type(t) is int
                and 0 <= h < n_ent and 0 <= r < n_rel and 0 <= t < n_ent
            ):
                raise DataError(f"{path}: bad triple ids: {triple!r}")
            key = (h * n_rel + r) * n_ent + t
            add_fact(key)
            canonical = canonical and key > last
            last = key
        if entities != sorted(entities) or relations != sorted(relations):
            return cls(
                entities,
                relations,
                ((entities[h], relations[r], entities[t]) for h, r, t in triples),
            )
        graph = cls.__new__(cls)
        graph._intern(entities, relations)
        graph._facts = facts
        graph._triples = triples if canonical else sorted(set(map(tuple, triples)))
        return graph
