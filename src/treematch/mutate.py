"""Ground-truth-labeled mutants of a DOM tree.

Every source node gets a unique signature; mutation operators rewrite a copy
of the tree while transferring signatures, so the signature relation between
source and mutant is the exact node matching a matcher should recover.
Structure operators: remove (node and subtree), duplicate (signature-less
copy), wrap (new signature-less parent), unwrap (splice children into the
node's place), swap (exchange two siblings). Attribute and content operators
edit a node in place. All randomness comes from one seeded generator, so a
(tree, ratio, seed) triple always produces the same mutant.

Each operator makes its draws in this order:

1. the kind: ``rng.choice(usable)``, where ``usable`` lists, in
   ``MUTATION_KINDS`` order, every kind that has a target;
2. the node: ``rng.choice(pool)``, where ``pool`` lists that kind's targets
   in pre-order;
3. the operator's own draws (swap partner, attribute, words, letters).

A change to any pool's order or membership changes every later draw.

``_Mutator`` takes its drafts, in pre-order, from :func:`thaw`, and each
node's parent from the tree's parent ids. Every source node is signed, so a
node's signed count starts as its subtree size. The mutator then updates
the pools in place instead of rescanning the tree before each operator.
After every operator:

- ``nodes`` holds the draft's signed nodes in pre-order, and a node's signed
  subtree is the slice starting at its position whose length is its
  ``signed_count``;
- one flag bytearray per kind is aligned with them: has-parent (shared by
  duplicate and unwrap), swap (the parent has at least 2 children), and one
  per attribute and text kind; wrap targets every signed node, and
  remove_node every node with a parent whose signed count is at most the
  number of nodes still to mutate (checked lazily);
- ``parent_of`` and ``signed_count`` key each signed node, wrapper and copy
  by ``id()``. A wrapper or copy is registered when it is created, so it
  overwrites the entries of a dead node whose id it reuses before anything
  reads them.

Structural operators edit slices of the arrays; in-place operators recompute
only their target's attribute and text flags, which can flip either way.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable

from .tree import DraftNode, LabeledTree, freeze, subtree_sizes, thaw


class ExhaustedTargets(RuntimeError):
    """No eligible node left before reaching the requested mutation count."""


class DuplicateSignature(ValueError):
    """A signature appears on more than one node of the same tree."""


MUTATION_KINDS = (
    "remove_node",
    "duplicate",
    "wrap",
    "unwrap",
    "swap",
    "attr_remove",
    "attr_remove_words",
    "content_replace_random",
    "content_change_letters",
    "content_remove",
    "content_remove_words",
)

_STRUCTURAL_KINDS = frozenset(
    {"remove_node", "duplicate", "wrap", "unwrap", "swap"}
)
_CONTENT_KINDS = MUTATION_KINDS[5:]  # the in-place attribute and text operators
MAX_RATIO = 0.5  # the largest share of a tree's nodes one mutant changes

# magnitudes for the partial text/attribute operators (the operators'
# definition fixes only *what* changes, not how much)
_CHANGE_LETTER_FRACTION = 0.10
_REMOVE_WORD_FRACTION = 0.30
_WRAPPER_TAG = "div"


@dataclass(frozen=True)
class MutationOp:
    """One applied operator: its kind, the target's signature, and details."""

    kind: str
    target: str
    detail: dict


@dataclass(frozen=True)
class MutationLog:
    """Everything needed to re-derive the ground truth for one mutant."""

    source_page: str
    seed: int
    ratio: float
    ops: tuple[MutationOp, ...]
    removed_signatures: frozenset[str]


def assign_signatures(tree: LabeledTree) -> LabeledTree:
    """Give every node a unique opaque signature (stable across re-runs).

    Signatures live outside the attribute list, so tokenization and the
    matchers never see them.
    """
    signatures = tuple([f"s{v:05d}" for v in range(len(tree))])
    return LabeledTree(tree.tags, tree.attributes, tree.texts, tree.parents, tree.children,
                       tree.segments, signatures)


def ground_truth(source: LabeledTree, mutant: LabeledTree) -> set[tuple[int, int]]:
    """Pairs of (source id, mutant id) sharing a signature."""

    def by_signature(tree: LabeledTree) -> dict[str, int]:
        out: dict[str, int] = {}
        for node_id, signature in enumerate(tree.signatures):
            if signature is None:
                continue
            if signature in out:
                raise DuplicateSignature(signature)
            out[signature] = node_id
        return out

    src = by_signature(source)
    dst = by_signature(mutant)
    return {(src[sig], dst[sig]) for sig in src.keys() & dst.keys()}


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))


def _drop_words(text: str, rng: random.Random) -> str:
    words = text.split()
    k = max(1, int(_REMOVE_WORD_FRACTION * len(words) + 0.5))
    doomed = set(rng.sample(range(len(words)), min(k, len(words))))
    return " ".join(w for i, w in enumerate(words) if i not in doomed)


def _content_flags(node: DraftNode) -> tuple[bool, ...]:
    """Whether ``node`` is a target of each of ``_CONTENT_KINDS``, in that order."""
    attrs, text = node.attrs, node.text
    has_text = bool(text)
    return (
        bool(attrs),
        any(value.split() for _, value in attrs),
        has_text,
        has_text and any(ch.isalpha() for ch in text),  # type: ignore[union-attr]
        has_text,
        has_text and bool(text.split()),  # type: ignore[union-attr]
    )


class _Mutator:
    def __init__(self, tree: LabeledTree, ratio: float, seed: int, source_page: str):
        if not 0.0 <= ratio <= MAX_RATIO:
            raise ValueError(f"mutation ratio must be in [0, {MAX_RATIO}], got {ratio}")
        if None in tree.signatures:
            raise ValueError(f"node {tree.signatures.index(None)} has no signature; "
                             "sign the tree first")
        self.ratio = ratio
        self.seed = seed
        self.source_page = source_page
        self.target = int(ratio * len(tree) + 0.5)
        drafts = self.nodes = thaw(tree)
        self.root = drafts[0]
        self.rng = random.Random(seed)
        self.mutated: set[str] = set()
        self.removed: set[str] = set()
        self.ops: list[MutationOp] = []

        parents = [None] + [drafts[p] for p in tree.parents[1:]]  # type: ignore[index]
        keys = list(map(id, drafts))
        self.parent_of: dict[int, DraftNode | None] = dict(zip(keys, parents))
        # every node is signed at this point: a signed count is a subtree size
        self.signed_count: dict[int, int] = dict(zip(keys, subtree_sizes(tree)))
        self._has_parent = bytearray(p is not None for p in parents)
        self._swap = bytearray(p is not None and len(p.children) >= 2 for p in parents)
        self._content = [bytearray(col) for col in zip(*map(_content_flags, drafts))]
        self._flags = {
            "duplicate": self._has_parent,
            "unwrap": self._has_parent,
            "swap": self._swap,
            **dict(zip(_CONTENT_KINDS, self._content)),
        }
        self._arrays: list = [self.nodes, self._has_parent, self._swap, *self._content]

    # -- pools -----------------------------------------------------------

    def has_target(self, kind: str, need: int) -> bool:
        if kind == "remove_node":
            count = self.signed_count
            return any(count[id(n)] <= need for n in compress(self.nodes, self._has_parent))
        if kind == "wrap":
            return bool(self.nodes)
        return 1 in self._flags[kind]

    def pool(self, kind: str, need: int) -> list[int]:
        """Pre-order positions of ``kind``'s targets."""
        everyone = range(len(self.nodes))
        if kind == "remove_node":
            count, nodes = self.signed_count, self.nodes
            return [i for i in compress(everyone, self._has_parent) if count[id(nodes[i])] <= need]
        if kind == "wrap":
            return list(everyone)
        return list(compress(everyone, self._flags[kind]))

    # -- bookkeeping -------------------------------------------------------

    def _note(self, kind: str, target: str, detail: dict, signatures: list[str]) -> None:
        self.ops.append(MutationOp(kind=kind, target=target, detail=detail))
        self.mutated.update(signatures)

    def _register(self, node: DraftNode, parent: DraftNode | None, signed: int) -> None:
        """Record a new unsigned node (wrapper or copy) the moment it exists."""
        self.parent_of[id(node)] = parent
        self.signed_count[id(node)] = signed

    def _add_to_ancestors(self, node: DraftNode | None, delta: int) -> None:
        while node is not None:
            key = id(node)
            self.signed_count[key] += delta
            node = self.parent_of[key]

    def _reflag_swap(self, parent: DraftNode, idx: int, pos: int) -> None:
        """Re-derive the swap flag of ``parent``'s signed children, given that
        the segment of child slot ``idx`` starts at position ``pos``."""
        flag = len(parent.children) >= 2
        count, swap = self.signed_count, self._swap
        start = pos
        for child in parent.children[idx:]:
            if child.signature is not None:
                swap[start] = flag
            start += count[id(child)]
        start = pos
        for child in reversed(parent.children[:idx]):
            start -= count[id(child)]
            if child.signature is not None:
                swap[start] = flag

    # -- operators --------------------------------------------------------

    def apply(self, kind: str, pos: int) -> None:
        """Apply one operator to the signed node at pre-order position ``pos``."""
        node = self.nodes[pos]
        sig = node.signature
        assert sig is not None
        key = id(node)
        parent = self.parent_of[key]
        rng = self.rng
        if kind == "remove_node":
            assert parent is not None
            size = self.signed_count[key]
            gone = [n.signature for n in self.nodes[pos : pos + size]]
            idx = parent.children.index(node)
            del parent.children[idx]
            for array in self._arrays:
                del array[pos : pos + size]
            self._add_to_ancestors(parent, -size)
            if len(parent.children) == 1:
                self._reflag_swap(parent, idx, pos)
            self.removed.update(gone)
            self._note(kind, sig, {"subtree_signatures": gone}, gone)
        elif kind == "duplicate":
            assert parent is not None
            copy = node.copy_deep()
            parent.children.insert(parent.children.index(node) + 1, copy)
            self._register(copy, parent, 0)
            self._swap[pos] = 1
            self._note(kind, sig, {}, [sig])
        elif kind == "wrap":
            wrapper = DraftNode(tag=_WRAPPER_TAG, children=[node])
            if parent is None:
                self.root = wrapper
            else:
                parent.children[parent.children.index(node)] = wrapper
            self._register(wrapper, parent, self.signed_count[key])
            self.parent_of[key] = wrapper
            self._has_parent[pos] = 1
            self._swap[pos] = 0
            self._note(kind, sig, {"wrapper_tag": _WRAPPER_TAG}, [sig])
        elif kind == "unwrap":
            assert parent is not None
            idx = parent.children.index(node)
            parent.children[idx : idx + 1] = node.children
            for child in node.children:
                self.parent_of[id(child)] = parent
            for array in self._arrays:
                del array[pos]
            self._add_to_ancestors(parent, -1)
            self._reflag_swap(parent, idx, pos)
            self.removed.add(sig)
            self._note(kind, sig, {}, [sig])
        elif kind == "swap":
            assert parent is not None
            kids = parent.children
            others = [c for c in kids if c is not node]
            partner = rng.choice(others)
            i = kids.index(node)
            # list.index compares by value, so an unsigned partner may resolve
            # to an equal copy earlier in the list; the swap uses that slot.
            j = kids.index(partner)
            lo, hi = min(i, j), max(i, j)
            count = self.signed_count
            first, last = count[id(kids[lo])], count[id(kids[hi])]
            between = sum(count[id(c)] for c in kids[lo + 1 : hi])
            start = pos if i == lo else pos - between - first
            kids[i], kids[j] = partner, node
            mid, end = start + first, start + first + between
            for array in self._arrays:
                array[start : end + last] = (
                    array[end : end + last] + array[mid:end] + array[start:mid]
                )
            touched = [sig] + ([partner.signature] if partner.signature else [])
            self._note(kind, sig, {"partner": partner.signature}, touched)
        elif kind == "attr_remove":
            name = rng.choice([n for n, _ in node.attrs])
            node.attrs = [(n, v) for n, v in node.attrs if n != name]
            self._note(kind, sig, {"attribute": name}, [sig])
        elif kind == "attr_remove_words":
            name, value = rng.choice(
                [(n, v) for n, v in node.attrs if v.split()]
            )
            shrunk = _drop_words(value, rng)
            node.attrs = [(n, shrunk if n == name else v) for n, v in node.attrs]
            self._note(kind, sig, {"attribute": name}, [sig])
        elif kind == "content_replace_random":
            count = max(1, len(node.text.split()))  # type: ignore[union-attr]
            node.text = " ".join(_random_word(rng) for _ in range(count))
            self._note(kind, sig, {"words": count}, [sig])
        elif kind == "content_change_letters":
            chars = list(node.text)  # type: ignore[arg-type]
            letter_positions = [i for i, ch in enumerate(chars) if ch.isalpha()]
            k = max(1, int(_CHANGE_LETTER_FRACTION * len(letter_positions) + 0.5))
            for i in rng.sample(letter_positions, min(k, len(letter_positions))):
                chars[i] = rng.choice(string.ascii_lowercase)
            node.text = "".join(chars)
            self._note(kind, sig, {"letters": k}, [sig])
        elif kind == "content_remove":
            node.text = None
            self._note(kind, sig, {}, [sig])
        elif kind == "content_remove_words":
            node.text = _drop_words(node.text, rng) or None  # type: ignore[arg-type]
            self._note(kind, sig, {}, [sig])
        else:  # pragma: no cover - guarded by MUTATION_KINDS
            raise ValueError(f"unknown mutation kind {kind!r}")
        if kind not in _STRUCTURAL_KINDS:
            for array, flag in zip(self._content, _content_flags(node)):
                array[pos] = flag

    def run(self) -> tuple[LabeledTree, MutationLog]:
        while len(self.mutated) < self.target:
            need = self.target - len(self.mutated)
            usable = [kind for kind in MUTATION_KINDS if self.has_target(kind, need)]
            if not usable:
                raise ExhaustedTargets(
                    f"{len(self.mutated)} of {self.target} nodes mutated, no target left"
                )
            kind = self.rng.choice(usable)
            self.apply(kind, self.rng.choice(self.pool(kind, need)))
        log = MutationLog(
            source_page=self.source_page,
            seed=self.seed,
            ratio=self.ratio,
            ops=tuple(self.ops),
            removed_signatures=frozenset(self.removed),
        )
        return freeze(self.root), log


def mutate(
    tree: LabeledTree, ratio: float, seed: int, source_page: str = ""
) -> tuple[LabeledTree, MutationLog]:
    """Apply random operators until round(ratio * size) distinct nodes changed."""
    return _Mutator(tree, ratio, seed, source_page).run()


# ---------------------------------------------------------------------------
# Log serialization (the third file of an on-disk mutant bundle)

def mutation_log_to_json(log: MutationLog) -> str:
    obj = {
        "source_page": log.source_page,
        "seed": log.seed,
        "ratio": log.ratio,
        "ops": [
            {"kind": op.kind, "target": op.target, "detail": op.detail}
            for op in log.ops
        ],
        "removed_signatures": sorted(log.removed_signatures),
    }
    return json.dumps(obj, ensure_ascii=False, indent=2)


def _log_field(owner: object, path: str, name: str, ok: Callable[[Any], bool], want: str) -> Any:
    """``owner[name]`` of a log read from JSON, once ``ok`` holds of it; ``path``
    names ``owner`` in the ``ValueError`` raised otherwise."""
    if not isinstance(owner, dict):
        raise ValueError(f"mutation log {path or 'root'} must be an object, got {owner!r:.60}")
    where = f"{path}.{name}" if path else name
    if name not in owner:
        raise ValueError(f"mutation log field {where} is missing")
    value = owner[name]
    if not ok(value):
        raise ValueError(f"mutation log field {where} must be {want}, got {value!r:.60}")
    return value


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


def mutation_log_from_json(text: str) -> MutationLog:
    """Read a log written by :func:`mutation_log_to_json`; raises ``ValueError``
    naming a field that is missing or of the wrong type or range."""
    obj = json.loads(text)
    ops = _log_field(obj, "", "ops", lambda v: isinstance(v, list), "a list")
    return MutationLog(
        source_page=_log_field(obj, "", "source_page", _is_str, "a string"),
        seed=_log_field(obj, "", "seed", lambda v: type(v) is int, "an int"),
        ratio=_log_field(
            obj, "", "ratio", lambda v: type(v) in (int, float) and 0 <= v <= MAX_RATIO,
            f"a finite number in [0, {MAX_RATIO}]",
        ),
        ops=tuple(
            MutationOp(
                kind=_log_field(op, f"ops[{k}]", "kind", MUTATION_KINDS.__contains__,
                                "one of MUTATION_KINDS"),
                target=_log_field(op, f"ops[{k}]", "target", _is_str, "a string"),
                detail=_log_field(op, f"ops[{k}]", "detail", lambda v: isinstance(v, dict),
                                  "an object"),
            )
            for k, op in enumerate(ops)
        ),
        removed_signatures=frozenset(_log_field(
            obj, "", "removed_signatures",
            lambda v: isinstance(v, list) and all(map(_is_str, v)), "a list of strings",
        )),
    )
