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
2. the node: ``rng.choice(pool)``, where ``pool`` is the sequence of that
   kind's targets in pre-order;
3. the operator's own draws (swap partner, attribute, words, letters).

A change to any pool's order or membership changes every later draw.

``_Mutator`` works on int node ids. The source's nodes keep their ids
``0 .. N-1``; each wrapper and each node of a copy gets the next id as it
is made, so ids only grow and no id is reused. One plain list per field,
indexed by id, holds the draft: ``tags``, ``attrs`` (tuples of name-value
pairs), ``texts``, ``sigs`` (``None`` on wrappers and copies), ``kids`` (the
child ids in sibling order), ``parent_of`` and ``signed_count`` (the signed
nodes in the subtree). A removed or unwrapped node keeps its entries but
is no longer reachable from ``root``. :meth:`_Mutator.seal` lists the
reachable ids in one pre-order walk over ``kids``, gathers the tag,
attribute, text and signature columns over them, and hands those and the
new parent ids to the tree module's ``_seal``, the step the readers end in.
The mutant stores only those five columns; its children and xpath segments
are derived on first use, as for every tree.

Every source node is signed, so the set-up reads the source's stored
columns only: ``kids`` is listed from the parent column, a signed count
starts as the subtree size, and the flags below are built one column at a
time. The mutator then updates them in place instead of
rescanning the draft before each operator. After every operator:

- ``nodes`` holds the ids of the signed nodes in pre-order, and a node's
  signed subtree is the slice starting at its position whose length is its
  signed count;
- one flag bytearray per kind is aligned with ``nodes``: has-parent (shared
  by remove_node, duplicate and unwrap), swap (the parent has at least 2
  children), and one per attribute and text kind.

No pool is a list. ``random.choice`` reads only ``len(pool)`` and
``pool[k]``, so a flag kind's pool is a view of its bytearray: its length
is ``flags.count(1)`` and its k-th item the k-th set position, found with
C-level counts and a C-level ``compress``. Wrap's pool is
``range(len(nodes))``. remove_node's is a view of a copy of the has-parent
flags, cleared at the nodes whose signed count exceeds the number of nodes
still to mutate. Those nodes are closed under ancestors, so they are found
from the root down; ``_kid_bound`` holds, per id, a bound on its children's
signed counts, so the walk skips the children of a node when none of them
can qualify, however many there are.

The id is a node's one identity: every node reachable from ``root`` sits
in exactly one slot of one reachable node's ``kids`` list, so structural
operators, swap's partner included, find a node's slot among its siblings
with ``kids.index`` and edit slices of the arrays. In-place operators
recompute only their target's attribute and text flags, which can flip
either way.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from typing import Any, Callable, Sequence

from .tree import LabeledTree, _child_lists, _seal, subtree_sizes


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
_SCAN = 256  # a pool view scans at most this many flags one by one


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
    return LabeledTree(tree.tags, tree.attributes, tree.texts, tree.parents, signatures)


def signature_ids(tree: LabeledTree) -> dict[str, int]:
    """Each signature of ``tree`` with its node; raises
    :class:`DuplicateSignature` for one that is on two nodes."""
    out: dict[str, int] = {}
    for node_id, signature in enumerate(tree.signatures):
        if signature is None:
            continue
        if signature in out:
            raise DuplicateSignature(signature)
        out[signature] = node_id
    return out


def ground_truth(source: LabeledTree, mutant: LabeledTree) -> set[tuple[int, int]]:
    """Pairs of (source id, mutant id) sharing a signature."""
    src = signature_ids(source)
    dst = signature_ids(mutant)
    return {(src[sig], dst[sig]) for sig in src.keys() & dst.keys()}


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))


def _drop_words(text: str, rng: random.Random) -> str:
    words = text.split()
    k = max(1, int(_REMOVE_WORD_FRACTION * len(words) + 0.5))
    doomed = set(rng.sample(range(len(words)), min(k, len(words))))
    return " ".join(w for i, w in enumerate(words) if i not in doomed)


def _content_flags(attrs: tuple[tuple[str, str], ...], text: str | None) -> tuple[bool, ...]:
    """Whether a node is a target of each of ``_CONTENT_KINDS``, in that
    order; the set-up of ``_Mutator`` builds the same flags column by column."""
    has_text = bool(text)
    return (
        bool(attrs),
        # a value has words exactly when it holds a non-space character
        bool("".join([value for _, value in attrs]).strip()),
        has_text,
        has_text and any(map(str.isalpha, text)),  # type: ignore[arg-type]
        has_text,
        has_text and bool(text.split()),  # type: ignore[union-attr]
    )


class _FlagPool:
    """The positions whose flag is set, as a sequence ``random.choice`` can
    draw from with no list built: its length is counted once, and item
    ``k`` is found by halving the flags while more than ``_SCAN`` remain,
    with C-level counts, then by a C-level scan of the rest."""

    __slots__ = ("flags", "size")

    def __init__(self, flags: bytearray):
        self.flags = flags
        self.size = flags.count(1)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self.size:
            raise IndexError(k)
        flags = self.flags
        lo, hi = 0, len(flags)
        while hi - lo > _SCAN:
            mid = (lo + hi) // 2
            left = flags.count(1, lo, mid)
            if k < left:
                hi = mid
            else:
                k -= left
                lo = mid
        return next(islice(compress(count(lo), flags[lo:hi]), k, None))


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
        size = len(tree)
        self.target = int(ratio * size + 0.5)
        self.rng = random.Random(seed)
        self.mutated: set[str] = set()
        self.removed: set[str] = set()
        self.ops: list[MutationOp] = []

        self.root = 0
        self.tags = list(tree.tags)
        self.attrs = list(tree.attributes)
        self.texts = list(tree.texts)
        self.sigs: list[str | None] = list(tree.signatures)
        self.kids = _child_lists(tree.parents)
        self.parent_of: list[int | None] = list(tree.parents)
        # every node is signed at this point: a signed count is a subtree size
        self.signed_count = subtree_sizes(tree)
        # at least the largest signed count among each node's children; no
        # signed count ever grows, so a bound, once true, stays true
        self._kid_bound = list(self.signed_count)
        self.nodes = list(range(size))

        # the flags, column by column; the root is the one node with no parent
        self._has_parent = bytearray(b"\0" + b"\1" * (size - 1))
        fan_out = list(map(len, self.kids))
        self._swap = bytearray([0] + [fan_out[p] >= 2 for p in tree.parents[1:]])  # type: ignore[index]
        attrs, texts = tree.attributes, tree.texts
        has_text = bytearray(map(bool, texts))
        self._content = [  # as _content_flags, one column per kind
            bytearray(map(bool, attrs)),
            bytearray([bool("".join([value for _, value in pairs]).strip()) for pairs in attrs]),
            has_text,
            bytearray([bool(text) and any(map(str.isalpha, text)) for text in texts]),
            bytearray(has_text),
            bytearray([bool(text) and bool(text.split()) for text in texts]),
        ]
        self._flags = {
            "remove_node": self._has_parent,
            "duplicate": self._has_parent,
            "unwrap": self._has_parent,
            "swap": self._swap,
            **dict(zip(_CONTENT_KINDS, self._content)),
        }
        self._arrays: list = [self.nodes, self._has_parent, self._swap, *self._content]

    # -- pools -----------------------------------------------------------

    def has_target(self, kind: str) -> bool:
        if kind == "wrap":
            return bool(self.nodes)
        # remove_node reads the has-parent flags: while need >= 1, the last signed
        # node in pre-order has signed count 1 and, unless it is the only one, a parent
        return 1 in self._flags[kind]

    def pool(self, kind: str, need: int) -> Sequence[int]:
        """Pre-order positions of ``kind``'s targets."""
        if kind == "remove_node":
            small = bytearray(self._has_parent)
            for pos in self._big(need):
                small[pos] = 0
            return _FlagPool(small)
        if kind == "wrap":
            return range(len(self.nodes))
        return _FlagPool(self._flags[kind])

    def _big(self, need: int) -> list[int]:
        """Positions of the signed nodes whose signed count exceeds ``need``.

        Such nodes are closed under ancestors, so they are found from the
        root down. A node's children are scanned only when ``_kid_bound``
        says one of them may qualify, and the scan sets the bound to the
        largest child count it saw.
        """
        count, bound, kids, sigs = self.signed_count, self._kid_bound, self.kids, self.sigs
        found: list[int] = []
        stack = [(self.root, 0)] if count[self.root] > need else []
        while stack:
            v, pos = stack.pop()  # pos: where v's signed subtree starts
            if sigs[v] is not None:
                found.append(pos)
                pos += 1
            if bound[v] > need:
                largest = 0
                for child in kids[v]:
                    size = count[child]
                    if size > need:
                        stack.append((child, pos))
                    if size > largest:
                        largest = size
                    pos += size
                bound[v] = largest
        return found

    # -- bookkeeping -------------------------------------------------------

    def _note(self, kind: str, target: str, detail: dict, signatures: list[str]) -> None:
        self.ops.append(MutationOp(kind=kind, target=target, detail=detail))
        self.mutated.update(signatures)

    def _append(self, tag: str, attrs: tuple, text: str | None, kids: list[int],
                parent: int | None, signed: int) -> int:
        """Append an unsigned node; return its id."""
        new = len(self.tags)
        self.tags.append(tag)
        self.attrs.append(attrs)
        self.texts.append(text)
        self.sigs.append(None)
        self.kids.append(kids)
        self.parent_of.append(parent)
        self.signed_count.append(signed)
        self._kid_bound.append(signed)
        return new

    def _copy(self, v: int, parent: int) -> int:
        """Append an unsigned copy of ``v``'s subtree, with ``parent`` as the
        copy's parent; return the copy's id."""
        tags, attrs, texts, kids = self.tags, self.attrs, self.texts, self.kids
        top = len(tags)
        stack = [(v, parent)]
        while stack:
            original, up = stack.pop()  # in pre-order, so siblings arrive in order
            new = self._append(tags[original], attrs[original], texts[original], [], up, 0)
            if new != top:
                kids[up].append(new)
            if kids[original]:
                stack.extend(zip(reversed(kids[original]), repeat(new)))
        return top

    def _add_to_ancestors(self, v: int | None, delta: int) -> None:
        count, parent_of = self.signed_count, self.parent_of
        while v is not None:
            count[v] += delta
            v = parent_of[v]

    def _reflag_swap(self, parent: int, idx: int, pos: int, spliced: list[int]) -> None:
        """Re-derive the swap flags that change when ``parent``'s child slot
        ``idx``, whose signed segment started at position ``pos``, gives way
        to the children ``spliced``: with two or more children left, only
        the spliced ones can change; with one left, that one can no longer
        swap."""
        kids, swap = self.kids[parent], self._swap
        count, sigs = self.signed_count, self.sigs
        if len(kids) >= 2:
            for child in spliced:
                if sigs[child] is not None:
                    swap[pos] = 1
                pos += count[child]
        elif kids and sigs[kids[0]] is not None:
            swap[pos if idx == 0 else pos - count[kids[0]]] = 0

    # -- operators --------------------------------------------------------

    def apply(self, kind: str, pos: int) -> None:
        """Apply one operator to the signed node at pre-order position ``pos``."""
        v = self.nodes[pos]
        sig = self.sigs[v]
        assert sig is not None
        parent = self.parent_of[v]
        rng = self.rng
        if kind == "remove_node":
            assert parent is not None
            size = self.signed_count[v]
            gone = list(map(self.sigs.__getitem__, self.nodes[pos : pos + size]))
            kids = self.kids[parent]
            idx = kids.index(v)
            del kids[idx]
            for array in self._arrays:
                del array[pos : pos + size]
            self._add_to_ancestors(parent, -size)
            self._reflag_swap(parent, idx, pos, [])
            self.removed.update(gone)
            self._note(kind, sig, {"subtree_signatures": gone}, gone)
        elif kind == "duplicate":
            assert parent is not None
            kids = self.kids[parent]
            kids.insert(kids.index(v) + 1, self._copy(v, parent))
            self._swap[pos] = 1
            self._note(kind, sig, {}, [sig])
        elif kind == "wrap":
            wrapper = self._append(_WRAPPER_TAG, (), None, [v], parent, self.signed_count[v])
            if parent is None:
                self.root = wrapper
            else:
                kids = self.kids[parent]
                kids[kids.index(v)] = wrapper
            self.parent_of[v] = wrapper
            self._has_parent[pos] = 1
            self._swap[pos] = 0
            self._note(kind, sig, {"wrapper_tag": _WRAPPER_TAG}, [sig])
        elif kind == "unwrap":
            assert parent is not None
            kids, spliced = self.kids[parent], self.kids[v]
            idx = kids.index(v)
            kids[idx : idx + 1] = spliced
            for child in spliced:
                self.parent_of[child] = parent
            for array in self._arrays:
                del array[pos]
            self._add_to_ancestors(parent, -1)
            self._reflag_swap(parent, idx, pos, spliced)
            self.removed.add(sig)
            self._note(kind, sig, {}, [sig])
        elif kind == "swap":
            assert parent is not None
            kids = self.kids[parent]
            i = kids.index(v)
            partner = rng.choice(kids[:i] + kids[i + 1 :])
            j = kids.index(partner)
            lo, hi = min(i, j), max(i, j)
            count = self.signed_count
            first, last = count[kids[lo]], count[kids[hi]]
            between = sum(map(count.__getitem__, kids[lo + 1 : hi]))
            start = pos if i == lo else pos - between - first
            kids[i], kids[j] = partner, v
            mid, end = start + first, start + first + between
            for array in self._arrays:
                array[start : end + last] = (
                    array[end : end + last] + array[mid:end] + array[start:mid]
                )
            partner_sig = self.sigs[partner]
            touched = [sig] + ([partner_sig] if partner_sig else [])
            self._note(kind, sig, {"partner": partner_sig}, touched)
        elif kind == "attr_remove":
            name = rng.choice([n for n, _ in self.attrs[v]])
            self.attrs[v] = tuple([(n, x) for n, x in self.attrs[v] if n != name])
            self._note(kind, sig, {"attribute": name}, [sig])
        elif kind == "attr_remove_words":
            name, value = rng.choice([(n, x) for n, x in self.attrs[v] if x.split()])
            shrunk = _drop_words(value, rng)
            self.attrs[v] = tuple([(n, shrunk if n == name else x) for n, x in self.attrs[v]])
            self._note(kind, sig, {"attribute": name}, [sig])
        elif kind == "content_replace_random":
            words = max(1, len(self.texts[v].split()))  # type: ignore[union-attr]
            self.texts[v] = " ".join(_random_word(rng) for _ in range(words))
            self._note(kind, sig, {"words": words}, [sig])
        elif kind == "content_change_letters":
            chars = list(self.texts[v])  # type: ignore[arg-type]
            letter_positions = [i for i, ch in enumerate(chars) if ch.isalpha()]
            k = max(1, int(_CHANGE_LETTER_FRACTION * len(letter_positions) + 0.5))
            for i in rng.sample(letter_positions, min(k, len(letter_positions))):
                chars[i] = rng.choice(string.ascii_lowercase)
            self.texts[v] = "".join(chars)
            self._note(kind, sig, {"letters": k}, [sig])
        elif kind == "content_remove":
            self.texts[v] = None
            self._note(kind, sig, {}, [sig])
        elif kind == "content_remove_words":
            self.texts[v] = _drop_words(self.texts[v], rng) or None  # type: ignore[arg-type]
            self._note(kind, sig, {}, [sig])
        else:  # pragma: no cover - guarded by MUTATION_KINDS
            raise ValueError(f"unknown mutation kind {kind!r}")
        if kind not in _STRUCTURAL_KINDS:
            for array, flag in zip(self._content, _content_flags(self.attrs[v], self.texts[v])):
                array[pos] = flag

    def seal(self) -> LabeledTree:
        """The draft as a ``LabeledTree``: each column gathered over the nodes
        reachable from ``root``, in pre-order."""
        tags, attrs, texts, sigs, kids = self.tags, self.attrs, self.texts, self.sigs, self.kids
        order: list[int] = []  # the ids in pre-order
        ups: list[int | None] = []  # each node's parent, by its new id
        stack: list[int] = [self.root]
        up_stack: list[int | None] = [None]
        while stack:
            v = stack.pop()
            new_id = len(order)
            order.append(v)
            ups.append(up_stack.pop())
            if kids[v]:
                stack += reversed(kids[v])
                up_stack += [new_id] * len(kids[v])
        gathers = [map(column.__getitem__, order) for column in (tags, attrs, texts, sigs)]
        return _seal(*gathers, ups)

    def run(self) -> tuple[LabeledTree, MutationLog]:
        while len(self.mutated) < self.target:
            need = self.target - len(self.mutated)
            usable = [kind for kind in MUTATION_KINDS if self.has_target(kind)]
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
        return self.seal(), log


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
    for text that is not JSON or is nested too deeply to read, and naming a
    field that is missing or of the wrong type or range."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("mutation log nested too deeply to read") from None
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
