"""Relational equality-saturation engine.

E-nodes are (op, child-ids) with hashconsing; literals are their own
nullary nodes.  Alongside the term graph, a fact store holds Datalog-style
relation tuples (has-type, amx-b-tile, amx-shape, ...) whose arguments are
class ids; facts are canonicalized on rebuild.  A fact index files each
tuple under the root of its first argument and relation; `union` moves the
losing root's tuples to the winner at once, so a relation atom whose first
term is already bound is a hash lookup, even between a union and the next
rebuild.  E-matching runs join plans, as in relational e-matching
(Zhang et al., POPL 2022): a `RuleDef` compiles its query once, when it
is built, into a chain of atoms over one list of variable slots.  Each
`PNode` is an e-node atom (class slot, op, arity, child slots), each
`Rel` a fact atom that reads the fact index when its first slot is bound,
and whether a slot is already bound is settled at compile time, so a
match checks bound slots with `==` and binds free ones by assignment.
Classes, nodes and tuples are iterated unsorted and `ematch` orders its
result once at the end.  `rebuild` returns at once when no
union happened since the last one: `add` and `assert_fact` canonicalize
their arguments, so a graph without unions is already congruence-closed.
Each class also keeps its nodes of fewer than two children in
`class_nodes` order, so constant, name and type reads never sort.

Rules pair a query (term patterns joined with relation atoms and primitive
guards) with an imperative action that may construct terms, union classes,
and assert facts.  The schedule runs supporting rules to fixpoint, then one
sequential round of axiomatic, application, and lowering rules, then
rebuilds — for a fixed number of iterations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter


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
    """Query atom: `var`'s class contains a term matching `pattern`."""

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
class Guard:
    """Query atom: `fn(graph, env)` is truthy.  All referenced variables
    must be bound by earlier atoms; `env` maps every variable they bind
    to its class.  A guard reads only the nodes of those classes, never
    facts: a fact a rule needs is a `Rel` atom, where the plan sees it."""

    fn: object
    doc: str = ""


@dataclass
class RuleDef:
    name: str
    category: str  # axiomatic | application | lowering | supporting
    query: tuple
    action: object  # fn(graph, env) -> None
    doc: str = ""
    target: str = ""  # "", "amx", or "wmma"
    fuzz: object = None  # optional fn(rng) -> (lhs Expr, rhs Expr, env inputs)

    def __post_init__(self):
        if not isinstance(self.query, Query):
            try:
                self.query = Query(self.query)
            except TypeError as e:
                raise TypeError(f"rule {self.name!r}: {e}") from None

    @property
    def semantic(self):
        """Unions value terms, so it is subject to soundness fuzzing."""
        return self.category in ("axiomatic", "lowering")


class EGraph:
    def __init__(self, on_add=None):
        self._parent = []
        self._hashcons = {}
        self._class_nodes = {}  # root -> dict[node -> None]
        self._small = {}  # root -> its nodes of < 2 children, class_nodes order
        self._op_index = {}  # op -> set of roots (refreshed on rebuild)
        self.facts = {}  # relation name -> set of arg tuples
        self._fact_index = {}  # root of first arg -> {relation -> arg tuples}
        self._merged = False  # a union happened since the last rebuild
        self.version = 0
        self.on_add = on_add

    # -- union-find ---------------------------------------------------------

    def find(self, a):
        while self._parent[a] != a:
            self._parent[a] = self._parent[self._parent[a]]
            a = self._parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if rb < ra:
            ra, rb = rb, ra
        self._parent[rb] = ra
        nodes = self._class_nodes.pop(rb, {})
        self._class_nodes.setdefault(ra, {}).update(nodes)
        small = self._small.pop(rb, [])
        if small:
            self._small[ra] = sorted(self._small.get(ra, []) + small, key=_node_key)
        for name, tuples in self._fact_index.pop(rb, {}).items():
            self._fact_index.setdefault(ra, {}).setdefault(name, set()).update(tuples)
        self._merged = True
        self.version += 1
        return ra

    # -- insertion ----------------------------------------------------------

    def add(self, op, children=()):
        node = (op, tuple(self.find(c) for c in children))
        found = self._hashcons.get(node)
        if found is not None:
            return self.find(found)
        cid = len(self._parent)
        self._parent.append(cid)
        self._hashcons[node] = cid
        self._class_nodes[cid] = {node: None}
        if len(node[1]) < 2:
            self._small[cid] = [node]
        self._op_index.setdefault(op, set()).add(cid)
        self.version += 1
        if self.on_add:
            self.on_add(self, op, cid)
        return cid

    def add_int(self, v):
        return self.add(("int", int(v)))

    def assert_fact(self, name, *args):
        tup = tuple(self.find(a) for a in args)
        store = self.facts.setdefault(name, set())
        if tup not in store:
            store.add(tup)
            self._index_fact(name, tup)
            self.version += 1

    def _index_fact(self, name, tup):
        if tup:
            self._fact_index.setdefault(tup[0], {}).setdefault(name, set()).add(tup)

    # -- congruence ---------------------------------------------------------

    def rebuild(self):
        if not self._merged:
            return
        while True:
            changed = False
            new_hashcons = {}
            for node, cid in self._hashcons.items():
                canon = (node[0], tuple(self.find(c) for c in node[1]))
                root = self.find(cid)
                other = new_hashcons.get(canon)
                if other is not None and self.find(other) != root:
                    self.union(other, root)
                    changed = True
                new_hashcons[canon] = self.find(root)
            self._hashcons = new_hashcons
            if not changed:
                break
        self._class_nodes = {}
        self._op_index = {}
        for node, cid in self._hashcons.items():
            root = self.find(cid)
            self._class_nodes.setdefault(root, {})[node] = None
            self._op_index.setdefault(node[0], set()).add(root)
        self._small = {}
        for root, nodes in self._class_nodes.items():
            small = [n for n in nodes if len(n[1]) < 2]
            if small:
                self._small[root] = sorted(small, key=_node_key)
        self._fact_index = {}
        for name, tuples in self.facts.items():
            self.facts[name] = {tuple(self.find(a) for a in t) for t in tuples}
            for t in self.facts[name]:
                self._index_fact(name, t)
        self._merged = False

    # -- inspection ---------------------------------------------------------

    def class_ids(self):
        return sorted(self._class_nodes)

    def class_nodes(self, cid):
        return sorted(self._class_nodes.get(self.find(cid), ()), key=_node_key)

    def small_nodes(self, cid):
        """The class's nodes with fewer than two children (literals, names,
        types), in `class_nodes` order but without sorting."""
        return self._small.get(self.find(cid), ())

    def class_int(self, cid):
        small = self.small_nodes(cid)
        for op, _ in small:
            if op[0] == "int":
                return op[1]
        for op, _ in small:
            if op[0] == "imm" and op[1] == "i32":
                return int(op[2])
        return None

    def class_imm(self, cid):
        for op, _ in self.small_nodes(cid):
            if op[0] == "imm":
                return op[1], op[2]
        return None

    @property
    def n_classes(self):
        return len(self._class_nodes)

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
    """A query's atoms, carrying the join plan they compile to as `plan`."""

    def __new__(cls, atoms):
        query = super().__new__(cls, atoms)
        query.plan = compile_query(query)
        return query


def ematch(g, query):
    """All substitutions (variable -> canonical class id) satisfying the
    query's atoms, deduplicated and deterministically ordered.  A `Query`
    runs its own plan; a plain tuple of atoms is compiled first."""
    plan = query.plan if isinstance(query, Query) else compile_query(query)
    return plan(g)


def compile_query(query):
    """The join plan of `query`: a function of a graph returning the
    query's matches.  Raises TypeError on anything but a query atom.

    Variables become slots of one list, in the order atoms first bind
    them; a `Bind` of one variable to another gives both the same slot.
    A `PNode` becomes an e-node atom over a class slot and its
    children's slots (a nested `PNode` gets an anonymous slot and its own
    atom after its parent's); a `Rel` becomes a fact atom over its terms'
    slots, read through the fact index when its first slot is bound.
    Whether a slot is bound when its atom runs is known here, so matching
    checks a bound slot with `==` and binds a free one by assignment,
    never undoing it: the next candidate overwrites it.  A guard gets the
    named variables bound by the atoms before it."""
    slots = {}  # variable name -> its slot, from the atom that binds it on
    size = 0
    steps = []  # (step factory, its arguments) in match order

    def new_slot():
        nonlocal size
        size += 1
        return size - 1

    def positions(pats, indexed=False):
        """(position, slot) pairs of `pats` binding a free slot and checking
        a bound one, and the nested PNodes with the slots they match in.
        An `indexed` position 0 is neither: the index lookup matched it."""
        binds, checks, nested = [], [], []
        for i, pat in enumerate(pats):
            if isinstance(pat, PVar):
                k = slots.get(pat.name)
                if k is None:
                    k = slots[pat.name] = new_slot()
                    binds.append((i, k))
                elif i or not indexed:
                    checks.append((i, k))
            elif isinstance(pat, PNode):
                k = new_slot()
                binds.append((i, k))
                nested.append((pat, k))
            else:
                raise TypeError(f"not a pattern: {pat!r}")
        return binds, checks, nested

    def enode(pat, c, scan):
        binds, checks, nested = positions(pat.children)
        steps.append((_enode_step, c, scan, pat.op, len(pat.children), binds, checks))
        for child, k in nested:
            enode(child, k, False)

    for atom in query:
        if isinstance(atom, Bind):
            c = slots.get(atom.var)
            scan = c is None
            if scan:
                c = slots[atom.var] = new_slot()
            if isinstance(atom.pattern, PNode):
                enode(atom.pattern, c, scan)
            elif isinstance(atom.pattern, PVar):  # one class: share a slot
                v = slots.setdefault(atom.pattern.name, c)
                if scan and v != c:
                    slots[atom.var] = v
                elif scan:
                    steps.append((_class_step, c))
                elif v != c:
                    steps.append((_same_step, c, v))
            else:
                raise TypeError(f"not a pattern: {atom.pattern!r}")
        elif isinstance(atom, Rel):
            first = atom.terms[0] if atom.terms else None
            lookup = slots.get(first.name) if isinstance(first, PVar) else None
            binds, checks, nested = positions(atom.terms, lookup is not None)
            steps.append((_fact_step, atom.name, lookup, len(atom.terms), binds, checks))
            for child, k in nested:
                enode(child, k, False)
        elif isinstance(atom, Guard):
            steps.append((_guard_step, atom.fn, list(slots.items())))
        else:
            raise TypeError(f"not a query atom: {atom!r}")

    names = sorted(slots)
    order = [slots[n] for n in names]
    # itemgetter returns a single slot bare and needs at least one
    key = (itemgetter(*order) if len(order) > 1
           else lambda s: tuple(s[k] for k in order))

    def done(g, s, found):
        found.add(key(s))

    run = done
    for factory, *args in reversed(steps):
        run = factory(*args, run)

    def plan(g):
        found = set()
        run(g, [None] * size, found)
        return [dict(zip(names, k)) for k in sorted(found)]

    return plan


# Each step factory returns `step(g, slots, found)`, which matches one atom
# under the slots bound so far and calls `run` for every way it matches.
# After a union and before the next rebuild (`g._merged`), node children
# and fact arguments may be stale ids, so they are canonicalized first;
# otherwise every id in the graph is a root.  The e-node and fact steps
# repeat one bind-and-check loop inline, as a shared helper would cost a
# call per candidate.


def _enode_step(c, scan, op, arity, binds, checks, run):
    def step(g, s, found):
        parent = g._parent if g._merged else None
        for o, ids in g._class_nodes.get(s[c], ()):
            if o == op and len(ids) == arity:
                if parent is not None:
                    ids = [x if parent[x] == x else g.find(x) for x in ids]
                for i, k in binds:
                    s[k] = ids[i]
                for i, k in checks:
                    if s[k] != ids[i]:
                        break
                else:
                    run(g, s, found)

    if not scan:
        return step

    def scan_step(g, s, found):
        classes = g._op_index.get(op, ())
        if g._merged:
            classes = {g.find(x) for x in classes}
        for cid in classes:
            s[c] = cid
            step(g, s, found)

    return scan_step


def _fact_step(name, lookup, arity, binds, checks, run):
    def step(g, s, found):
        parent = g._parent if g._merged else None
        tuples = (g.facts.get(name, ()) if lookup is None
                  else g._fact_index.get(s[lookup], {}).get(name, ()))
        for ids in tuples:
            if len(ids) == arity:
                if parent is not None:
                    ids = [x if parent[x] == x else g.find(x) for x in ids]
                for i, k in binds:
                    s[k] = ids[i]
                for i, k in checks:
                    if s[k] != ids[i]:
                        break
                else:
                    run(g, s, found)

    return step


def _class_step(c, run):
    def step(g, s, found):
        for cid in g._class_nodes:
            s[c] = cid
            run(g, s, found)

    return step


def _same_step(a, b, run):
    def step(g, s, found):
        if s[a] == s[b]:
            run(g, s, found)

    return step


def _guard_step(fn, named, run):
    def step(g, s, found):
        if fn(g, {name: s[k] for name, k in named}):
            run(g, s, found)

    return step


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


def _apply_rule(g, rule, report):
    matches = ematch(g, rule.query)
    report.matches[rule.category] = report.matches.get(rule.category, 0) + len(matches)
    before = g.version
    for env in matches:
        rule.action(g, env)
    if g.version != before:
        report.applications[rule.category] = (
            report.applications.get(rule.category, 0) + 1)


def run_schedule(g, rules, iterations, node_budget):
    """Fixed-iteration schedule: supporting rules to fixpoint, then one
    round of axiomatic + application + lowering, then rebuild.  Raises
    NodeBudgetExceeded (leaving the partial graph intact) when the class
    count passes `node_budget`."""
    t0 = time.perf_counter()
    report = SaturationReport()
    supporting = [r for r in rules if r.category == "supporting"]
    rounds = {cat: [r for r in rules if r.category == cat]
              for cat in CATEGORY_ORDER}

    def check_budget():
        if g.n_classes > node_budget:
            report.ms = (time.perf_counter() - t0) * 1e3
            report.n_classes, report.n_nodes = g.n_classes, g.n_nodes
            report.budget_exceeded = True
            raise NodeBudgetExceeded(
                f"{g.n_classes} classes exceed budget {node_budget}")

    for it in range(iterations):
        report.iterations = it + 1
        while True:
            before = g.version
            for rule in supporting:
                _apply_rule(g, rule, report)
            g.rebuild()
            check_budget()
            if g.version == before:
                break
        for cat in CATEGORY_ORDER:
            for rule in rounds[cat]:
                _apply_rule(g, rule, report)
            check_budget()
        g.rebuild()
        check_budget()
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
    smallest child ids, so extraction is deterministic."""
    root = g.find(root)
    best = {}  # class -> (cost, op tiebreak key, child ids, node)

    changed = True
    while changed:
        changed = False
        for cid in g.class_ids():
            for op, children in g.class_nodes(cid):
                if any(g.find(c) not in best for c in children):
                    continue
                total = node_cost(op, len(children)) + sum(
                    best[g.find(c)][0] for c in children)
                cand = (total, repr(op), children)
                cur = best.get(cid)
                if cur is None or cand < cur[:3]:
                    best[cid] = (total, repr(op), children, (op, children))
                    changed = True
    if root not in best:
        raise NoFiniteCost(f"class {root} has no finite-cost term")

    memo = {}

    def build(cid):
        cid = g.find(cid)
        if cid not in memo:
            op, children = best[cid][3]
            memo[cid] = (op, tuple(build(c) for c in children))
        return memo[cid]

    return build(root)
