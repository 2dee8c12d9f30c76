"""SEQUITUR hierarchical grammar compression (Nevill-Manning & Witten, 1997).

The paper identifies temporal streams by running SEQUITUR over the
miss-address trace (Section 3): the grammar's production rules correspond to
distinct repetitive subsequences.  SEQUITUR builds the grammar online, one
symbol at a time, while maintaining two invariants:

* **digram uniqueness** — no pair of adjacent symbols appears more than once
  in the grammar; a repeated digram is replaced by a non-terminal.
* **rule utility** — every rule (except the root) is referenced at least
  twice; a rule whose reference count drops to one is inlined and removed.

This is the classic doubly-linked-list implementation with a digram index
(following the reference C++ implementation structure), running in time
linear in the input length.

Terminals are arbitrary hashable Python objects (the analyses pass cache
block addresses, i.e. integers).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple


class _Symbol:
    """A node in a rule's doubly-linked symbol list.

    A symbol is either a *terminal* (``value`` set, ``rule`` None), a
    *non-terminal* reference to a :class:`Rule`, or a rule's guard sentinel
    (both unset, ``owner`` set to the guarded rule).
    """

    __slots__ = ("value", "rule", "owner", "prev", "next")

    def __init__(self, value: Optional[Hashable] = None,
                 rule: Optional["Rule"] = None,
                 owner: Optional["Rule"] = None) -> None:
        self.value = value
        self.rule = rule
        self.owner = owner
        self.prev: Optional["_Symbol"] = None
        self.next: Optional["_Symbol"] = None
        if rule is not None:
            rule.refcount += 1

    @property
    def is_guard(self) -> bool:
        return self.value is None and self.rule is None

    @property
    def is_nonterminal(self) -> bool:
        return self.rule is not None

    def token(self) -> Tuple:
        """Hashable identity of this symbol's content (terminal or rule)."""
        if self.rule is not None:
            return ("R", self.rule.id)
        return ("T", self.value)

    def digram_key(self) -> Optional[Tuple]:
        """Hashable key identifying the digram (self, self.next)."""
        nxt = self.next
        if nxt is None or self.is_guard or nxt.is_guard:
            return None
        return (self.token(), nxt.token())


class Rule:
    """A production rule: a guard sentinel heading a circular symbol list."""

    def __init__(self, rule_id: int) -> None:
        self.id = rule_id
        self.refcount = 0
        self.guard = _Symbol(owner=self)
        self.guard.prev = self.guard
        self.guard.next = self.guard

    @property
    def first(self) -> _Symbol:
        return self.guard.next  # type: ignore[return-value]

    @property
    def last(self) -> _Symbol:
        return self.guard.prev  # type: ignore[return-value]

    def is_empty(self) -> bool:
        return self.guard.next is self.guard

    def symbols(self) -> Iterator[_Symbol]:
        sym = self.guard.next
        while sym is not None and not sym.is_guard:
            yield sym
            sym = sym.next

    def body(self) -> List:
        """The rule body as a list of terminals and :class:`Rule` references."""
        out: List = []
        for sym in self.symbols():
            out.append(sym.rule if sym.rule is not None else sym.value)
        return out

    def __len__(self) -> int:
        return sum(1 for _ in self.symbols())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for item in self.body():
            parts.append(f"R{item.id}" if isinstance(item, Rule) else repr(item))
        return f"Rule({self.id}: {' '.join(parts)})"


class Grammar:
    """A SEQUITUR grammar built incrementally with :meth:`append`."""

    def __init__(self) -> None:
        self._next_rule_id = 0
        self.root = self._new_rule()
        #: digram key -> the left symbol of the (unique) indexed occurrence
        self._digrams: Dict[Tuple, _Symbol] = {}
        self._length = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _new_rule(self) -> Rule:
        rule = Rule(self._next_rule_id)
        self._next_rule_id += 1
        return rule

    def append(self, value: Hashable) -> None:
        """Append one terminal to the input sequence."""
        sym = _Symbol(value=value, owner=self.root)
        self._link(self.root.last, sym)
        self._link(sym, self.root.guard)
        self._length += 1
        prev = sym.prev
        if prev is not None and not prev.is_guard:
            self._check(prev)

    def extend(self, values: Iterable[Hashable]) -> None:
        for value in values:
            self.append(value)

    def __len__(self) -> int:
        """Number of terminals appended so far."""
        return self._length

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    # The default pickle protocol would recurse through the doubly-linked
    # symbol lists and overflow the interpreter stack on any non-trivial
    # grammar.  Serialise iteratively as (rule id -> token list) instead and
    # rebuild the linked structure, refcounts, and digram index on load, so
    # grammars can cross process boundaries (process-pool workers) and live
    # in the on-disk result store.

    def __getstate__(self) -> Dict:
        # Record which occurrence each digram-index entry points at as
        # (rule id, position): for overlapping runs of identical symbols the
        # indexed occurrence is build-history-dependent and cannot be
        # recovered from the rule bodies alone.
        indexed = []
        for rule in self.rules():
            for position, sym in enumerate(rule.symbols()):
                key = sym.digram_key()
                if key is not None and self._digrams.get(key) is sym:
                    indexed.append((rule.id, position))
        return {
            "next_rule_id": self._next_rule_id,
            "length": self._length,
            "root": self.root.id,
            "rules": [(rule.id, [sym.token() for sym in rule.symbols()])
                      for rule in self.rules()],
            "indexed": indexed,
        }

    def __setstate__(self, state: Dict) -> None:
        self._next_rule_id = state["next_rule_id"]
        self._length = state["length"]
        self._digrams = {}
        by_id: Dict[int, Rule] = {rid: Rule(rid) for rid, _ in state["rules"]}
        self.root = by_id[state["root"]]
        for rid, tokens in state["rules"]:
            rule = by_id[rid]
            for kind, payload in tokens:
                if kind == "R":
                    sym = _Symbol(rule=by_id[payload], owner=rule)
                else:
                    sym = _Symbol(value=payload, owner=rule)
                self._link(rule.guard.prev, sym)
                self._link(sym, rule.guard)
        # Restore the digram index to exactly the recorded occurrences, so
        # appending to an unpickled grammar behaves identically to appending
        # to the original.
        symbols_at = {
            rid: list(by_id[rid].symbols()) for rid, _ in state["rules"]}
        for rid, position in state["indexed"]:
            sym = symbols_at[rid][position]
            self._digrams[sym.digram_key()] = sym

    # ------------------------------------------------------------------ #
    # Linked-list and index primitives
    # ------------------------------------------------------------------ #
    @staticmethod
    def _link(left: _Symbol, right: _Symbol) -> None:
        left.next = right
        right.prev = left

    def _index(self, sym: _Symbol) -> None:
        key = sym.digram_key()
        if key is not None:
            self._digrams[key] = sym

    def _deindex(self, sym: _Symbol) -> None:
        key = sym.digram_key()
        if key is not None and self._digrams.get(key) is sym:
            del self._digrams[key]

    def _delete_symbol(self, sym: _Symbol) -> None:
        """Unlink ``sym`` from its list and clean up index/refcounts."""
        assert sym.prev is not None and sym.next is not None
        if not sym.prev.is_guard:
            self._deindex(sym.prev)
        self._deindex(sym)
        self._link(sym.prev, sym.next)
        if sym.rule is not None:
            sym.rule.refcount -= 1

    # ------------------------------------------------------------------ #
    # Invariant enforcement
    # ------------------------------------------------------------------ #
    def _check(self, left: _Symbol) -> bool:
        """Enforce digram uniqueness for the digram starting at ``left``.

        Returns True if the digram matched an existing one and a substitution
        took place (in which case ``left`` may no longer be linked).
        """
        key = left.digram_key()
        if key is None:
            return False
        existing = self._digrams.get(key)
        if existing is None:
            self._digrams[key] = left
            return False
        if existing is left:
            return False
        if existing.next is left or left.next is existing:
            # Overlapping occurrence (e.g. "aaa"): leave the index alone.
            return False
        self._match(left, existing)
        return True

    def _match(self, new_sym: _Symbol, existing: _Symbol) -> None:
        """Handle a repeated digram: reuse an existing rule or create one."""
        existing_rule = existing.owner
        assert existing_rule is not None
        if (existing_rule is not self.root
                and existing.prev is existing_rule.guard
                and existing.next is not None
                and existing.next.next is existing_rule.guard):
            # The matching digram is exactly a rule body: reuse that rule.
            rule = existing_rule
            self._substitute(new_sym, rule)
        else:
            rule = self._new_rule()
            first = _Symbol(value=new_sym.value, rule=new_sym.rule, owner=rule)
            assert new_sym.next is not None
            second = _Symbol(value=new_sym.next.value, rule=new_sym.next.rule,
                             owner=rule)
            self._link(rule.guard, first)
            self._link(first, second)
            self._link(second, rule.guard)
            # Replace both occurrences with references to the new rule.
            # Substitute the *existing* occurrence first (canonical order).
            self._substitute(existing, rule)
            self._substitute(new_sym, rule)
            self._index(first)
        # Rule utility: if the referenced rule's body begins or ends with a
        # non-terminal now used only once, inline it.
        first_body = rule.first
        if first_body.is_nonterminal and first_body.rule is not None \
                and first_body.rule.refcount == 1:
            self._expand(first_body)

    def _substitute(self, left: _Symbol, rule: Rule) -> None:
        """Replace the digram (left, left.next) with a reference to ``rule``."""
        prev = left.prev
        assert prev is not None
        right = left.next
        assert right is not None
        after = right.next
        assert after is not None
        owner = left.owner
        self._delete_symbol(left)
        self._delete_symbol(right)
        ref = _Symbol(rule=rule, owner=owner)
        self._link(prev, ref)
        self._link(ref, after)
        # Check the two digrams created by the substitution.  If the left
        # check performed a substitution, ``ref`` may be gone; skip the right.
        if not prev.is_guard:
            if self._check(prev):
                return
        if ref.next is not None and not ref.next.is_guard:
            self._check(ref)

    def _expand(self, ref: _Symbol) -> None:
        """Inline a rule referenced only once (rule-utility invariant).

        The rule's body symbols are spliced directly in place of ``ref`` so
        interior digram-index entries remain valid.
        """
        rule = ref.rule
        assert rule is not None and rule.refcount == 1
        prev = ref.prev
        nxt = ref.next
        assert prev is not None and nxt is not None
        if not prev.is_guard:
            self._deindex(prev)
        self._deindex(ref)
        first = rule.first
        last = rule.last
        if rule.is_empty():  # pragma: no cover - cannot happen for live rules
            self._link(prev, nxt)
        else:
            self._link(prev, first)
            self._link(last, nxt)
            owner = prev.owner
            sym: Optional[_Symbol] = first
            while sym is not None and sym is not nxt:
                sym.owner = owner
                sym = sym.next
            # Index the digram formed at the right seam.
            self._index(last)
        rule.refcount -= 1
        # Detach the dead rule's guard so accidental reuse is detectable.
        rule.guard.next = rule.guard
        rule.guard.prev = rule.guard

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def rules(self) -> List[Rule]:
        """All live rules reachable from the root (root first)."""
        seen: Dict[int, Rule] = {}
        order: List[Rule] = []

        def visit(rule: Rule) -> None:
            if rule.id in seen:
                return
            seen[rule.id] = rule
            order.append(rule)
            for sym in rule.symbols():
                if sym.rule is not None:
                    visit(sym.rule)

        visit(self.root)
        return order

    def expansion_lengths(self) -> Dict[int, int]:
        """Map rule id -> number of terminals the rule expands to."""
        lengths: Dict[int, int] = {}

        def length_of(rule: Rule) -> int:
            if rule.id in lengths:
                return lengths[rule.id]
            total = 0
            for sym in rule.symbols():
                total += length_of(sym.rule) if sym.rule is not None else 1
            lengths[rule.id] = total
            return total

        for rule in self.rules():
            length_of(rule)
        return lengths

    def expand(self) -> List[Hashable]:
        """Reconstruct the original input sequence (round-trip check)."""
        out: List[Hashable] = []
        iters: List[Iterator[_Symbol]] = [self.root.symbols()]
        while iters:
            try:
                sym = next(iters[-1])
            except StopIteration:
                iters.pop()
                continue
            if sym.rule is not None:
                iters.append(sym.rule.symbols())
            else:
                out.append(sym.value)
        return out

    def grammar_size(self) -> int:
        """Total number of symbols across all rule bodies (compression metric)."""
        return sum(len(rule) for rule in self.rules())

    def check_invariants(self, strict_digrams: bool = True) -> None:
        """Verify rule utility (and optionally digram uniqueness).

        Raises ``AssertionError`` on violation.  ``strict_digrams`` may be
        disabled for very long adversarial inputs where transient duplicate
        digrams at rule seams are tolerated.
        """
        live = self.rules()
        # Recompute reference counts from the live grammar.
        counted: Dict[int, int] = {rule.id: 0 for rule in live}
        for rule in live:
            for sym in rule.symbols():
                if sym.rule is not None:
                    counted[sym.rule.id] = counted.get(sym.rule.id, 0) + 1
        for rule in live:
            if rule is self.root:
                continue
            if counted.get(rule.id, 0) < 2:
                raise AssertionError(
                    f"rule {rule.id} referenced {counted.get(rule.id, 0)} "
                    "(<2) times in the live grammar")
            if len(rule) < 2:
                raise AssertionError(f"rule {rule.id} has a body of < 2 symbols")
        if strict_digrams:
            seen: Dict[Tuple, Tuple[int, int]] = {}
            for rule in live:
                for position, sym in enumerate(rule.symbols()):
                    key = sym.digram_key()
                    if key is None:
                        continue
                    where = (rule.id, position)
                    if key in seen:
                        prev_rule, prev_pos = seen[key]
                        overlapping = (key[0] == key[1]
                                       and prev_rule == rule.id
                                       and abs(prev_pos - position) == 1)
                        if not overlapping:
                            raise AssertionError(
                                f"digram {key} appears at {seen[key]} and {where}")
                    seen[key] = where


def build_grammar(sequence: Iterable[Hashable]) -> Grammar:
    """Convenience constructor: build a grammar over ``sequence``."""
    grammar = Grammar()
    grammar.extend(sequence)
    return grammar
