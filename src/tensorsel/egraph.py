"""Relational equality-saturation engine.

E-nodes are (op, child-ids) with hashconsing; literals are their own
nullary nodes.  The union-find is flat: every id's parent is its class's
root, so `find` is one list read.  `union` keeps the smaller root, so
class ids never depend on the order of merges, and relabels the loser's
members from a per-root member list, in time linear in the loser's size.

Alongside the term graph, a fact store holds Datalog-style relation
tuples (has-type, amx-b-tile, amx-shape, ...) whose arguments are class
ids.  A fact index files each tuple under the root of its first argument
and relation; `union` moves the losing root's tuples to the winner at
once, so a relation atom whose first term is already bound is a hash
lookup, even between a union and the next rebuild.  Each tuple is also
listed under the root of every argument, and `union` queues the loser's
list: those tuples, and only those, are stale until `rebuild` re-keys them.

As in egg (Willsey et al., POPL 2021), each class lists its parents, the
nodes with a child in it, and `union` queues the loser's parents: their
keys are stale.  `rebuild` pops them one by one, moves each to its
canonical key and merges the classes of two nodes that then share one,
which queues more, until none is left; it returns at once when no union
happened since the last one.  Hashcons keys, and so `class_nodes` (the
keys of a class's members), and the small nodes stay as they were until
then, so an `add` between a union and the rebuild still misses a stale
key.  Each class also keeps its nodes of fewer than two children in
`class_nodes` order, so constant, name and type reads never sort, and
`class_int` keeps its answer per root until those nodes change.

E-matching runs join plans, as in relational e-matching (Zhang et al.,
POPL 2022), over a view that `union` keeps canonical: per root and op,
the canonical child tuples of the class's nodes, and per op the roots
with a node of it.  `union` merges the loser's view into the winner's and
re-keys the loser's parents in their owners' views.  A `Query` writes its
plan's Python source in one pass over its atoms when it is made: nested
`for` loops over local slot variables, numbered in the order atoms first
bind them, with an e-node loop for each `PNode`, a fact loop for each
`Rel` (through the fact index when its first slot is bound), and an `if`
on the values it reads for each `Calc` guard.  Whether a slot is already
bound is settled as the source is written, so the plan checks bound slots
with `==` and binds free ones by assignment.  Ops, relation names and
guard literals are passed to it as constants, never written into its
source, so the code, compiled on the query's first `ematch`, is cached
per process by its source text and shared by every query of that shape,
as a right-hand side's is.  Classes, nodes and tuples are iterated
unsorted; the plan collects its matches as rows, tuples of class ids in
the order of the query's sorted variable names, and sorts them once.
Rows, not dicts, go on through the schedule to the actions, as egglog
keeps matches as tuple rows (Zhang et al., PLDI 2023).

Rules pair a query (term patterns joined with relation atoms and guards)
with a right-hand side in the same patterns, as egg uses a `Pattern` as an
`Applier`, with computed leaves and `If`.  Guards and computed leaves are
one language, `Calc`, compiled by one function (`_calc`), as egglog runs
primitive calls such as `(= 0 (% m n))` inside its queries.  A right-hand
side compiles, like a plan, to one Python function per template
structure: the rule's action, which reads its classes from a match row,
reads the hashcons itself and calls `add` only for a node that is not
there yet.

The schedule runs supporting rules to fixpoint, then one sequential round
of axiomatic, application, and lowering rules, then rebuilds — for a fixed
number of iterations.  The graph stamps each change with its version: per
op a new node was added with, per relation that gained a fact, per union,
and per class a union merged.  As in egglog (Zhang et al., PLDI 2023),
the schedule matches a rule again only when something its query reads
changed since its last run, and calls its action only on a match that is
new or binds a class merged since.

Extraction is a worklist over the live hashcons keys, in the order of
Knuth's generalization of Dijkstra's algorithm: a node's cost is summed
once its children's classes are final, and each class takes the first
node it pops, the cheapest by (cost, operator, children).
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field


class NodeBudgetExceeded(Exception):
    pass


class NoFiniteCost(Exception):
    pass


@dataclass(frozen=True)
class PVar:
    name: str


@dataclass(frozen=True)
class PNode:
    op: tuple
    children: tuple = ()


@dataclass(frozen=True)
class Bind:
    """Query atom: `var`'s class contains a term matching `pattern`, a
    `PNode`.  As an effect, `var`'s class is unioned with the template's."""

    var: str
    pattern: object


@dataclass(frozen=True)
class Rel:
    """Query atom: a tuple of `name` unifies with `terms` (PVar or PNode)."""

    name: str
    terms: tuple


def rel(name, *terms):
    return Rel(name, terms)


@dataclass(frozen=True)
class Calc:
    """A computed value: `op` (+ - * // % == < <= and in) joining two or
    more of int and tuple literals, matched ints (`PVar`) and Calcs, as
    Python joins them, or `int`, `imm`, `kind`, `lanes` or `name` of one
    matched variable (`_READS`).  A Calc or a PVar in a template node's op
    is computed.  As a query atom a Calc is a guard: the match holds where
    it is true, and fails where a read finds no value or a `//` or `%` in
    it has a divisor of 0; where a template's Calc meets either, the rule's
    action writes nothing.  Its variables must be bound by earlier atoms; it reads only the nodes
    of their classes, never facts: a fact a rule needs is a `Rel` atom,
    where the plan sees it."""

    op: str
    args: tuple


@dataclass(frozen=True)
class If:
    """Template: `then` when the Calc `cond` holds, else `other`."""

    cond: Calc
    then: object
    other: object


@dataclass(frozen=True)
class Let:
    """Effect: build `template` and name its class `var` for later effects."""

    var: str
    template: object


@dataclass
class RuleDef:
    """A rule: its query, made a `Query`, and its action, `fn(graph, row)`
    on each match row that `ematch` returns for the query (one class per
    variable of `query.names`).  The action is compiled from `rhs` when that
    is given, else written by hand."""

    name: str
    category: str  # axiomatic | application | lowering | supporting
    query: tuple
    action: object = None  # fn(graph, row) -> None; compiled from `rhs` if given
    rhs: tuple = ()  # effects: Bind (union), Rel (assert a fact), Let
    doc: str = ""
    target: str = ""  # "", "amx", or "wmma"
    fuzz: object = None  # optional fn(rng) -> a draw, a rules.Structure, or None

    def __post_init__(self):
        try:
            if not isinstance(self.query, Query):
                self.query = Query(self.query)
            if self.rhs:
                if not isinstance(self.rhs, Rhs):
                    self.rhs = Rhs(self.rhs, self.query.names)
                self.action = self.rhs.action
        except TypeError as e:
            raise TypeError(f"rule {self.name!r}: {e}") from None

    @property
    def semantic(self):
        """Unions value terms, so it is subject to soundness fuzzing."""
        return self.category in ("axiomatic", "lowering")


class EGraph:
    def __init__(self, on_add=None):
        self._parent = []  # id -> the root of its class, always: find is one read
        self._members = {}  # root -> every id whose root it is
        self._keys = []  # node id (its class when added) -> key, None once a twin replaced it
        self._hashcons = {}  # node key -> node id
        self._small = {}  # root -> its nodes of < 2 children, class_nodes order
        self._ints = {}  # root -> its `class_int`, until its small nodes change
        self._view = {}  # root -> op -> dict[canonical children -> None]
        self._op_index = {}  # op -> set of roots with a node of op
        self._parents = {}  # root -> ids of the nodes with a child in the class
        self._dirty = []  # ids of nodes whose key a union made stale
        self.facts = {}  # relation name -> set of arg tuples
        self._fact_index = {}  # root of first arg -> {relation -> arg tuples}
        self._fact_uses = {}  # root -> (relation, tuple) of facts filed with an arg in it
        self._stale_facts = []  # (relation, tuple) of facts a union may have made stale
        self._merged = False  # a union happened since the last rebuild
        self.version = 0  # counts changes: new nodes, new facts, unions
        self._stamps = {}  # op or relation -> version of its last new node or fact
        self._union_stamp = 0  # version of the last union
        self._merged_at = {}  # root -> version of the last union into it
        self.on_add = on_add

    # -- union-find ---------------------------------------------------------

    def find(self, a):
        return self._parent[a]

    def union(self, a, b):
        parent = self._parent
        ra, rb = parent[a], parent[b]
        if ra == rb:
            return ra
        if rb < ra:
            ra, rb = rb, ra
        root, keys, view = parent.__getitem__, self._keys, self._view
        moved = self._parents.pop(rb)
        # the loser's parents in their owners' views, keyed before relabeling
        rekey = [(nid, key[0], tuple(map(root, key[1])))
                 for nid in moved if (key := keys[nid]) is not None]
        members = self._members.pop(rb)
        for i in members:
            parent[i] = ra
        self._members[ra] += members
        small = self._small.pop(rb, [])
        self._ints.pop(rb, None)
        if small:
            self._small[ra] = sorted(self._small.get(ra, []) + small, key=_node_key)
            self._ints.pop(ra, None)
        for name, tuples in self._fact_index.pop(rb, {}).items():
            self._fact_index.setdefault(ra, {}).setdefault(name, set()).update(tuples)
        self._stale_facts += self._fact_uses.pop(rb, ())
        into = view[ra]
        for op, kids in view.pop(rb).items():
            if op in into:
                into[op].update(kids)
            else:
                into[op] = kids
            roots = self._op_index[op]
            roots.discard(rb)
            roots.add(ra)
        for nid, op, old in rekey:
            kids = view[parent[nid]][op]
            kids.pop(old, None)
            kids[tuple(ra if c == rb else c for c in old)] = None
        self._parents[ra] += moved
        self._dirty += moved
        self._merged = True
        self.version += 1
        self._union_stamp = self._merged_at[ra] = self.version
        return ra

    # -- insertion ----------------------------------------------------------

    def add(self, op, children=()):
        parent = self._parent
        kids = tuple(map(parent.__getitem__, children))
        node = (op, kids)
        found = self._hashcons.get(node)
        if found is not None:
            return parent[found]
        cid = len(parent)
        parent.append(cid)
        self._members[cid] = [cid]
        self._keys.append(node)
        self._hashcons[node] = cid
        if len(kids) < 2:
            self._small[cid] = [node]
        self._view[cid] = {op: {kids: None}}
        self._op_index.setdefault(op, set()).add(cid)
        self._parents[cid] = []
        for c in dict.fromkeys(kids):
            self._parents[c].append(cid)
        self.version += 1
        self._stamps[op] = self.version
        if self.on_add:
            self.on_add(self, op, cid)
        return cid

    def add_int(self, v):
        return self.add(("int", int(v)))

    def assert_fact(self, name, *args):
        tup = tuple(map(self._parent.__getitem__, args))
        store = self.facts.setdefault(name, set())
        if tup not in store:
            store.add(tup)
            self._index_fact(name, tup)
            self.version += 1
            self._stamps[name] = self.version

    def _index_fact(self, name, tup):
        """File a new canonical tuple under its first argument's root, and
        under the root of every argument for the union that stales it."""
        if tup:
            self._fact_index.setdefault(tup[0], {}).setdefault(name, set()).add(tup)
        uses = self._fact_uses
        for c in dict.fromkeys(tup):
            uses.setdefault(c, []).append((name, tup))

    # -- congruence ---------------------------------------------------------

    def rebuild(self):
        """Restore congruence: give each node a union made stale its
        canonical key, and merge the classes of two nodes that then share
        a key, until no stale node is left; then re-sort the small nodes of
        the classes that changed, and re-key each fact a union staled (one
        filed under a loser) in the facts and the fact index."""
        if not self._merged:
            return
        parent, keys, hashcons = self._parent, self._keys, self._hashcons
        root = parent.__getitem__
        touched = []
        while self._dirty:
            nid = self._dirty.pop()
            key = keys[nid]
            if key is None:
                continue
            canon = (key[0], tuple(map(root, key[1])))
            if canon == key:
                continue
            owner = parent[nid]
            touched.append(owner)
            del hashcons[key]
            other = hashcons.get(canon)
            if other is None:
                hashcons[canon], keys[nid] = nid, canon
            else:  # a congruent node: this one goes, their classes merge
                keys[nid] = None
                self.union(other, owner)
        for r in {parent[c] for c in touched}:
            small = [n for n in self._keys_of(r) if len(n[1]) < 2]
            if small:
                self._small[r] = sorted(small, key=_node_key)
                self._ints.pop(r, None)
        stale, self._stale_facts = self._stale_facts, []
        for name, tup in stale:
            tuples = self.facts[name]
            if tup not in tuples:  # re-keyed already
                continue
            canon = tuple(map(root, tup))
            tuples.remove(tup)
            self._fact_index[canon[0]][name].remove(tup)  # unions moved it to the root
            if canon not in tuples:
                tuples.add(canon)
                self._index_fact(name, canon)
        self._merged = False

    def changed_since(self, query, version):
        """Whether `query`'s matches may differ from those at `version`: a
        union came later, or a node of an op or a fact of a relation that
        it reads.  Without a union no class gains nodes, so the matches of
        a query depend only on the nodes of its ops and the facts of its
        relations."""
        if self._union_stamp > version:
            return True
        stamps = self._stamps
        for key in query.reads:
            if stamps.get(key, 0) > version:
                return True
        return False

    def can_match(self, query):
        """Whether the graph has held a node of every op and a fact of every
        relation that `query` reads.  A query's atoms are a conjunction, so
        one that reads an op or relation the graph never held matches
        nothing; nodes and facts are never removed, so this stays true
        once it is."""
        return self._stamps.keys() >= query.reads

    # -- inspection ---------------------------------------------------------

    def class_ids(self):
        return sorted(self._members)

    def _keys_of(self, root):
        """The keys of the nodes of class `root`, stale until `rebuild`."""
        keys = self._keys
        return [key for i in self._members[root] if (key := keys[i]) is not None]

    def class_nodes(self, cid):
        return sorted(self._keys_of(self._parent[cid]), key=_node_key)

    def small_nodes(self, cid):
        """The class's nodes with fewer than two children (literals, names,
        types), in `class_nodes` order but without sorting."""
        return self._small.get(self._parent[cid], ())

    def class_int(self, cid):
        root = self._parent[cid]
        try:
            return self._ints[root]
        except KeyError:
            pass
        n = self._ints[root] = self._scan_int(root)
        return n

    def _scan_int(self, root):
        small = self._small.get(root, ())
        for op, _ in small:
            if op[0] == "int":
                return op[1]
        for op, _ in small:
            if op[0] == "imm" and op[1] == "i32":
                return int(op[2])
        return None

    def class_imm(self, cid):
        """The fields of the class's first immediate after its head: (kind,
        value), and for a float kind the sign bit that keeps -0.0 apart."""
        for op, _ in self.small_nodes(cid):
            if op[0] == "imm":
                return op[1:]
        return None

    def class_name(self, cid):
        for op, _ in self.small_nodes(cid):
            if op[0] == "name":
                return op[1]
        return None

    def class_type(self, cid):
        """(kind, lanes) of the first type node in `cid` with a known lane count."""
        for op, ch in self.small_nodes(cid):
            if op[0] == "type":
                lanes = self.class_int(ch[0])
                if lanes is not None:
                    return op[1], lanes
        return None

    @property
    def n_classes(self):
        return len(self._members)

    @property
    def n_nodes(self):
        return len(self._hashcons)

    def dump(self):
        classes = []
        for cid in self.class_ids():
            classes.append({
                "id": cid,
                "nodes": [{"op": list(op), "children": list(ch)}
                          for op, ch in self.class_nodes(cid)],
            })
        facts = {name: sorted(list(t) for t in tuples)
                 for name, tuples in sorted(self.facts.items())}
        return {"classes": classes, "facts": facts}


def _node_key(node):
    return repr(node[0]), node[1]


# ---------------------------------------------------------------------------
# e-matching


class Query(tuple):
    """A query's atoms and the Python source of its join plan, written when
    the query is made (which raises TypeError on anything but a query atom,
    on a `Bind` whose pattern is not a `PNode`, and on a guard variable
    that no earlier atom binds).  The plan's code is
    compiled on the first `ematch`.  `names` holds the query's variables,
    sorted, in the order of each match row; `reads` the ops and relation
    names the query reads."""

    def __new__(cls, atoms):
        query = super().__new__(cls, atoms)
        query._source, query._consts, query.names, query.reads = _plan_source(query)
        query._plan = None
        return query

    @property
    def plan(self):
        if self._plan is None:
            self._plan = _make(_CODE, self._source, "<query plan>")(self._consts)
        return self._plan


def ematch(g, query):
    """All matches of the query's atoms, each a row: a tuple of canonical
    class ids, one per variable of `Query.names`, in that order.  The rows
    are deduplicated and sorted.  A `Query` runs its own plan; a plain tuple
    of atoms is made one first."""
    return (query if isinstance(query, Query) else Query(query)).plan(g)


_CODE = {}  # plan source -> its compiled `make`, shared by the process
_LOOPS = 16  # loops per generated function; CPython nests at most 20 blocks


def _make(cache, source, filename):
    """`make` of the generated `source`, compiled once per process and kept
    in `cache`."""
    make = cache.get(source)
    if make is None:
        scope = {}
        exec(compile(source, filename, "exec"), scope)
        make = cache[source] = scope["make"]
    return make


def _plan_source(query):
    """Python source of `make(K)`, which binds the constants `K` and returns
    `plan(g)`: the query's matches, found as a set of rows and returned
    sorted.  Also the constants, the query's variables, sorted (the order
    of a row), and the ops and relation names it reads.

    Variables become slots `s0, s1, ...`, in the order atoms first bind
    them, and each step one `for` loop, or one `if` for a guard, nested
    inside the steps before it; a failed test continues the innermost loop.
    Whether a slot is already bound is settled as the source is written, so
    the plan checks a bound slot with `==` and binds a free one by
    assignment.  A `PNode` is an e-node step over the class's canonical
    child tuples of its op in `g._view`, first scanning the roots in
    `g._op_index` when its class is not bound yet, so every id it binds is
    a root; a nested `PNode` gets an anonymous slot and its own step after
    its parent's.  A `Rel` is a fact step over its terms, read through the
    fact index when its first slot is bound.  After a union and before the
    next rebuild (`g._merged`), fact arguments may be stale ids, so a fact
    step canonicalizes them first.  A `Calc` is a guard step: it reads
    each value it needs once, where it runs, into a local, fails when a
    read finds none, and tests each divisor of a `//` or `%` for 0 before
    its expression (`_calc`), so a guard is total.  A plan deeper than
    `_LOOPS` loops goes on in a further function that takes the slots bound
    so far, and every function binds the readers its guards use.  Ops,
    relation names and guard literals are constants, never written into the
    source, so queries of one shape share their code."""
    slots, consts, reads, readers = {}, [], [], set()
    bound = []  # slots in the order the plan binds them
    lines = []
    parts = [("", lines)]  # (parameters, body lines) of each function
    depth = 0
    new_slot, new_step = itertools.count().__next__, itertools.count().__next__

    def const(value):
        consts.append(value)
        return f"k{len(consts) - 1}"

    def emit(text):
        lines.append("    " * (depth + 2) + text)

    def step(loops):
        """The number of a new step of `loops` loops, which goes on in a
        new function when it would nest them deeper than `_LOOPS`."""
        nonlocal lines, depth
        if loops and depth + loops > _LOOPS:
            params = "".join(f", s{k}" for k in bound)
            emit(f"part{len(parts)}(g, add{params})")
            lines, depth = [], 0
            parts.append((params, lines))
        return new_step()

    def unify(i, pats, indexed=False):
        """Bind the free slots and check the bound ones of `pats` against
        `ids{i}`, and return the nested PNodes with the slots they match
        in.  An `indexed` position 0 is neither: the index lookup matched
        it."""
        binds, checks, nested = [], [], []
        for pos, pat in enumerate(pats):
            if isinstance(pat, PVar):
                k = slots.get(pat.name)
                if k is None:
                    k = slots[pat.name] = new_slot()
                    binds.append((pos, k))
                elif pos or not indexed:
                    checks.append((pos, k))
            elif isinstance(pat, PNode):
                k = new_slot()
                binds.append((pos, k))
                nested.append((pat, k))
            else:
                raise TypeError(f"not a pattern: {pat!r}")
        for pos, k in binds:
            emit(f"s{k} = ids{i}[{pos}]")
            bound.append(k)
        for pos, k in checks:
            emit(f"if s{k} != ids{i}[{pos}]: continue")
        return nested

    def enode(pat, c, scan):
        nonlocal depth
        i = step(2 if scan else 1)
        op = const(pat.op)
        reads.append(pat.op)
        if scan:
            emit(f"for s{c} in ops.get({op}, ()):")
            bound.append(c)
            depth += 1
            emit(f"for ids{i} in view[s{c}][{op}]:")
        else:
            emit(f"for ids{i} in view[s{c}].get({op}, ()):")
        depth += 1
        emit(f"if len(ids{i}) != {len(pat.children)}: continue")
        for child, k in unify(i, pat.children):
            enode(child, k, False)

    for atom in query:
        if isinstance(atom, Bind):
            if not isinstance(atom.pattern, PNode):
                raise TypeError(f"not a pattern: {atom.pattern!r}")
            scan = atom.var not in slots
            if scan:
                slots[atom.var] = new_slot()
            enode(atom.pattern, slots[atom.var], scan)
        elif isinstance(atom, Rel):
            first = atom.terms[0] if atom.terms else None
            lookup = slots.get(first.name) if isinstance(first, PVar) else None
            i = step(1)
            name = const(atom.name)
            reads.append(atom.name)
            emit(f"for ids{i} in " + (f"facts.get({name}, ())" if lookup is None else
                                      f"index.get(s{lookup}, {{}}).get({name}, ())") + ":")
            depth += 1
            emit(f"if len(ids{i}) != {len(atom.terms)}: continue")
            emit(f"if merged: ids{i} = [*map(find, ids{i})]")
            for child, k in unify(i, atom.terms, lookup is not None):
                enode(child, k, False)
        elif isinstance(atom, Calc):
            i = step(0)
            values = {}  # (reader, slot) -> the local holding its value

            def read(reader, v):
                k = slots.get(v.name)
                if k is None:
                    raise TypeError(f"unbound variable ?{v.name}")
                return values.setdefault((reader, k), f"r{i}_{len(values)}")

            divisors = []
            expr = _calc(atom, const, read, divisors)
            if divisors:  # a zero divisor fails the guard, before it could raise
                expr = f"({' and '.join(divisors)} and {expr})"
            readers.update(r for r, _ in values)
            tests = "".join(f"({local} := {r}(s{k})) is None or "
                            for (r, k), local in values.items())
            emit(f"if {tests}not {expr}: {'continue' if depth else 'return'}")
        else:
            raise TypeError(f"not a query atom: {atom!r}")

    names = tuple(sorted(slots))
    emit(f"add(({''.join(f's{slots[n]},' for n in names)}))")
    source = ["def make(K):", f"    ({''.join(f'k{j}, ' for j in range(len(consts)))}) = K"]
    for j, (params, body) in enumerate(parts):
        source += [f"    def part{j}(g, add{params}):",
                   "        find, merged = g._parent.__getitem__, g._merged",
                   "        ops, view = g._op_index, g._view",
                   "        facts, index = g.facts, g._fact_index",
                   *(f"        {r} = g.{r}" for r in sorted(readers)), *body]
    source += ["    def plan(g):",
               "        found = set()",
               "        part0(g, found.add)",
               "        return sorted(found)",
               "    return plan"]
    return "\n".join(source) + "\n", consts, names, frozenset(reads)


# ---------------------------------------------------------------------------
# right-hand sides


class Rhs(tuple):
    """A rule's effects, checked and compiled into `action(g, row)` when
    made, for the match rows of a query whose variables are `names`: a
    `Bind` unions a matched class with its template's class, a `Rel`
    asserts a fact over its templates' classes, and a `Let` names its
    template's class for later effects.  Raises TypeError on anything else,
    or on a variable that neither the query nor an earlier `Let` binds."""

    def __new__(cls, effects, names):
        rhs = super().__new__(cls, effects)
        source, consts = _rhs_source(rhs, {v: i for i, v in enumerate(names)})
        rhs.action = _make(_ACTIONS, source, "<rule action>")(consts)
        return rhs


_ACTIONS = {}  # action source -> its compiled `make`, shared by the process
_CALC_OPS = ("+", "-", "*", "//", "%", "==", "<", "<=", "and", "in")
# a Calc leaf -> the EGraph reader of its class and the part of the result
_READS = {"int": ("class_int", ""), "imm": ("class_imm", ""),
          "kind": ("class_type", "[0]"), "lanes": ("class_type", "[1]"),
          "name": ("class_name", "")}


def _calc(c, const, read, divisors=None):
    """Python expression of the Calc `c` (a bare PVar reads an int): each
    literal is the local `const(value)` names, and each reader's value of
    a matched variable `v` the local `read(reader, v)` names.  The
    expressions of the divisors of its `//` and `%` are appended to
    `divisors` when given, inner ones first."""
    if isinstance(c, (int, tuple)):
        return const(c)
    leaf, args = (("int", (c,)) if isinstance(c, PVar)
                  else (c.op, c.args) if isinstance(c, Calc) else (None, ()))
    if leaf in _CALC_OPS and len(args) >= 2:
        parts = [_calc(a, const, read, divisors) for a in args]
        if divisors is not None and leaf in ("//", "%"):
            divisors += parts[1:]
        return f"({f' {leaf} '.join(parts)})"
    if leaf not in _READS or len(args) != 1:
        raise TypeError(f"not a computed leaf: {c!r}")
    if not isinstance(args[0], PVar):
        raise TypeError(f"not a matched variable: {args[0]!r}")
    reader, part = _READS[leaf]
    return read(reader, args[0]) + part


def _rhs_source(effects, bound):
    """Python source of `make(K)`, which binds the constants `K` and returns
    `action(g, row)`, and the constants; `bound` maps each query variable
    to its position in a match row.

    The action reads each matched class it uses from `row`, at a position
    passed as a constant, and each int, type and name a `Calc` needs, once
    before its first write.  When a read finds none, or a `//` or `%` has
    a divisor of 0 (in any template or `If` condition, taken or not), the
    action returns before it writes, as a guard fails the match.  It then
    adds each template's nodes children first, left to right, so they are
    numbered in that order; a `Let` puts a subterm first.  A node already
    in the graph is found in the hashcons under its canonical key, the read
    `g.add` would make, and only a miss calls `g.add`; a `Bind` calls
    `g.union` only on two roots that differ.  Ops, relation names, row positions and
    literals are constants, so right-hand sides of one shape share their
    code."""
    consts, head, body = [], [], []
    slots = {}  # variable -> the local holding its class
    reads = {}  # (reader, variable) -> the local holding its value
    divisors = []  # the expressions of every `//` and `%` divisor
    temps = itertools.count()

    def const(value):
        consts.append(value)
        return f"k{len(consts) - 1}"

    def var(name):
        if name not in slots:
            if name not in bound:
                raise TypeError(f"unbound variable ?{name}")
            slots[name] = f"s{len(slots)}"
            head.append(f"{slots[name]} = row[{const(bound[name])}]")
        return slots[name]

    def read(reader, v):
        if v.name not in bound:
            raise TypeError(f"not a matched variable: {v!r}")
        key = (reader, v.name)
        if key not in reads:
            reads[key] = f"r{len(reads)}"
            head.append(f"{reads[key]} = g.{reader}({var(v.name)})")
        return reads[key]

    def build(t, depth):
        """The local holding the class of template `t`, after the lines
        that add its nodes at indent `depth`."""
        if isinstance(t, PVar):
            return var(t.name)
        if isinstance(t, PNode):
            kids = [build(c, depth) for c in t.children]
            n = next(temps)
            out = f"t{n}"
            if any(isinstance(x, (Calc, PVar)) for x in t.op):
                op = "".join(f"{_calc(x, const, read, divisors)}, " if isinstance(x, (Calc, PVar))
                             else f"{const(x)}, " for x in t.op)
                body.append((depth, f"o{n} = ({op})"))
                op = f"o{n}"
            else:
                op = const(t.op)
            canon = "".join(f"P[{k}], " for k in kids)
            body.append((depth, f"{out} = hc_get(({op}, ({canon})))"))
            body.append((depth, f"{out} = g.add({op}, ({''.join(f'{k}, ' for k in kids)}))"
                                f" if {out} is None else P[{out}]"))
        elif isinstance(t, If):
            out = f"t{next(temps)}"
            for line, branch in ((f"if {_calc(t.cond, const, read, divisors)}:", t.then),
                                 ("else:", t.other)):
                body.append((depth, line))
                body.append((depth + 1, f"{out} = {build(branch, depth + 1)}"))
        else:
            raise TypeError(f"not a template: {t!r}")
        return out

    for eff in effects:
        if isinstance(eff, Bind):
            cls, x = build(eff.pattern, 0), var(eff.var)
            body.append((0, f"if P[{x}] != P[{cls}]: g.union({x}, {cls})"))
        elif isinstance(eff, Rel):
            args = "".join(f", {build(t, 0)}" for t in eff.terms)
            body.append((0, f"g.assert_fact({const(eff.name)}{args})"))
        elif isinstance(eff, Let):
            if eff.var in bound or eff.var in slots:
                raise TypeError(f"Let rebinds ?{eff.var}")
            slots[eff.var] = build(eff.template, 0)
        else:
            raise TypeError(f"not an effect: {eff!r}")
    fails = [*(f"{r} is None" for r in reads.values()),
             *(f"not {d}" for d in divisors if not d.startswith("k"))]  # k…: a literal
    if fails:
        head.append(f"if {' or '.join(fails)}: return")
    lines = ["def make(K):", f"    ({''.join(f'k{j}, ' for j in range(len(consts)))}) = K",
             "    def action(g, row):", "        P, hc_get = g._parent, g._hashcons.get",
             *(f"        {ln}" for ln in head),
             *("    " * (depth + 2) + ln for depth, ln in body), "    return action"]
    return "\n".join(lines) + "\n", consts


# ---------------------------------------------------------------------------
# schedule


@dataclass
class SaturationReport:
    iterations: int = 0
    matches: dict = field(default_factory=dict)  # category -> match count
    applications: dict = field(default_factory=dict)  # category -> growth events
    n_classes: int = 0
    n_nodes: int = 0
    ms: float = 0.0
    budget_exceeded: bool = False

    def as_dict(self):
        return {"iters": self.iterations, "classes": self.n_classes,
                "nodes": self.n_nodes, "matches": dict(self.matches),
                "budget_exceeded": self.budget_exceeded,
                "ms": round(self.ms, 3)}


CATEGORY_ORDER = ("axiomatic", "application", "lowering")
SUPPORTING_ROUNDS = 64  # rounds that add a node; the corpus needs at most 5


def run_schedule(g, rules, iterations, node_budget):
    """Fixed-iteration schedule: supporting rules to fixpoint, then one
    round of axiomatic + application + lowering, then rebuild.  Raises
    NodeBudgetExceeded (leaving the partial graph intact) when a rule run
    leaves more than `node_budget` classes, or when the supporting rules
    reach no fixpoint in SUPPORTING_ROUNDS rounds that add a node.  A round
    that adds only facts and unions is not counted: over a fixed set of
    nodes there are finitely many of those, so such rounds cannot go on
    forever, while a deep term can take one round per level to type.

    A rule is matched again only when the graph changed in what its query
    reads since the start of its last run (`EGraph.changed_since`);
    otherwise its last match count is counted again.  A rule whose query
    the graph cannot match yet (`EGraph.can_match`) runs as one that
    matched no rows, without calling `ematch`.  The matches are the
    rows `ematch` returns, each passed as it is to the rule's action.  A
    rule matched again calls its action only on a row that is new, or binds
    a class merged since its last run (looked up only when a union came
    since), or comes while a union awaits the rebuild.  An action reads
    only its matched classes' nodes: a right-hand side reads their ints,
    names and types (a type's lanes are the int of its child, which a
    union never changes in a well-typed graph).  Its writes are
    adds, unions and facts over those classes and the classes its
    templates build, all idempotent, so calling it again on an unchanged
    match changes nothing.  A compiled right-hand side makes exactly the
    writes of plain `g.add`, `g.union` and `g.assert_fact` calls: it reads
    a node's canonical key in the hashcons first and calls `g.add` only on
    a miss, and calls `g.union` only on two different roots.  Without a
    union pending every key and fact is canonical; with one, an `add` of a
    node built over a class the action itself built may miss its stale key
    and make a new class, so every action is called then.

    An iteration that leaves the version unchanged is a fixpoint: each
    later one would count the same matches and change nothing, so they
    are counted at once and the schedule ends."""
    t0 = time.perf_counter()
    report = SaturationReport()
    supporting = [r for r in rules if r.category == "supporting"]
    rounds = {cat: [r for r in rules if r.category == cat]
              for cat in CATEGORY_ORDER}
    last = {}  # id(rule) -> (version at the start of its last run, its rows)

    def stop(why):
        report.ms = (time.perf_counter() - t0) * 1e3
        report.n_classes, report.n_nodes = g.n_classes, g.n_nodes
        report.budget_exceeded = True
        raise NodeBudgetExceeded(why)

    def apply(rule):
        prev = last.get(id(rule))
        if prev is not None and not g.changed_since(rule.query, prev[0]):
            n = len(prev[1])
        else:
            start = g.version
            since, seen = prev if prev is not None else (start, ())
            rows = ematch(g, rule.query) if g.can_match(rule.query) else []
            n = len(rows)
            found = set(rows)
            action, merged_at = rule.action, g._merged_at
            stale = g._union_stamp > since  # a row's class may have grown since
            for row in rows:
                if g._merged or row not in seen:
                    action(g, row)
                elif stale:
                    for c in row:
                        if merged_at.get(c, 0) > since:
                            action(g, row)
                            break
            if g.version != start:
                report.applications[rule.category] = (
                    report.applications.get(rule.category, 0) + 1)
            last[id(rule)] = (start, found)
            if g.n_classes > node_budget:
                stop(f"{g.n_classes} classes exceed budget {node_budget}")
        report.matches[rule.category] = report.matches.get(rule.category, 0) + n

    for it in range(iterations):
        report.iterations = it + 1
        start, counted = g.version, dict(report.matches)
        grown = 0  # supporting rounds that created a node
        while grown < SUPPORTING_ROUNDS:
            before, ids = g.version, len(g._parent)
            for rule in supporting:
                apply(rule)
            g.rebuild()
            if g.version == before:
                break
            grown += len(g._parent) > ids
        else:
            stop(f"supporting rules reached no fixpoint in {SUPPORTING_ROUNDS} rounds "
                 f"that add a node")
        for cat in CATEGORY_ORDER:
            for rule in rounds[cat]:
                apply(rule)
        g.rebuild()
        if g.version == start:  # a fixpoint: every later iteration repeats this one
            for cat, n in report.matches.items():
                report.matches[cat] = n + (iterations - it - 1) * (n - counted.get(cat, 0))
            report.iterations = iterations
            break
    report.n_classes, report.n_nodes = g.n_classes, g.n_nodes
    report.ms = (time.perf_counter() - t0) * 1e3
    return report


# ---------------------------------------------------------------------------
# extraction


def node_cost(op, arity):
    """AST size: every node costs 1, intrinsic calls 1 + arity.

    Unresolved data-movement nodes carry a prohibitive cost so extraction
    returns a movement-free (realizable) term whenever one is represented;
    among those the choice is plain AST size."""
    if op[0] == "l2l":
        return 1000
    return 1 + arity if op[0] == "call" else 1


def extract_best(g, root):
    """Minimal-cost term represented in `root`'s class, as a nested
    (op, children) tree.  Ties break on the smallest operator then the
    smallest child ids, so extraction is deterministic.

    A worklist, as in Knuth's generalization of Dijkstra's algorithm (IPL
    1977): a node's total is computed once its last child class is final,
    and pushed on a heap ordered by (total, repr(op), children); the first
    pop of a class is its cheapest node.  Every cost is at least 1, so a
    class popped later has no smaller total, and the cheapest node of each
    class is the unique minimum of that order.  It stops once `root` is
    final, which every class of its term is by then."""
    find, keys = g._parent.__getitem__, g._keys
    root = find(root)
    heap, users, waiting = [], {}, {}  # users: class -> nodes with a child in it
    for (op, children), nid in g._hashcons.items():
        if children:
            waiting[nid] = len(children)
            for c in children:
                users.setdefault(find(c), []).append(nid)
        else:
            heap.append((node_cost(op, 0), repr(op), children, nid))
    heapq.heapify(heap)
    best = {}  # class -> (total, id of its cheapest node)
    while heap and root not in best:
        total, _, _, nid = heapq.heappop(heap)
        cid = find(nid)
        if cid in best:
            continue
        best[cid] = total, nid
        for user in users.get(cid, ()):
            waiting[user] -= 1
            if not waiting[user]:
                op, children = keys[user]
                cost = node_cost(op, len(children))
                for c in children:
                    cost += best[find(c)][0]
                heapq.heappush(heap, (cost, repr(op), children, user))
    if root not in best:
        raise NoFiniteCost(f"class {root} has no finite-cost term")

    memo = {}

    def build(cid):
        if cid not in memo:
            op, children = keys[best[cid][1]]
            memo[cid] = (op, tuple(build(find(c)) for c in children))
        return memo[cid]

    return build(root)
