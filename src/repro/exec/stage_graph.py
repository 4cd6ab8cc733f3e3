"""Compile a physical plan DAG into schedulable stages ("vertices").

This is the job-manager half of the Cosmos/Dryad execution model the
paper targets: a physical plan is cut into **vertices** at the points
where data leaves a machine-local pipeline —

* **exchange boundaries** (``Repartition``, ``RangeRepartition``,
  ``Merge``, ``BroadcastJoin``), because rows cross machines there; and
* **spool boundaries** (``Spool``), because the shared result is
  materialized once and re-read by every consumer.

The cut mirrors the cost model's tree/DAG split exactly: a spool node is
compiled into **one** vertex no matter how many consumers reference it
(the CSE plans of Figure 8(b)), while every other multi-referenced node
is expanded per reference — the duplicated-pipeline semantics of a
conventional plan (Figure 8(a)) that the sequential
:class:`~repro.exec.ColumnarExecutor` implements by re-recursing.

Each vertex records which of its fragment's operators are partition-local
(``partitionwise``); the scheduler fans those vertices out into one task
per partition, which is the per-partition vertex scheduling of the
Cosmos job manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..plan.logical import GroupByMode
from ..plan.physical import (
    PhysBroadcastJoin,
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysicalPlan,
    PhysMerge,
    PhysMergeJoin,
    PhysOutput,
    PhysProject,
    PhysRangeRepartition,
    PhysRepartition,
    PhysSort,
    PhysSpool,
    PhysStreamAgg,
    PhysTopN,
)

#: Operators that cut the DAG into stages: everything that moves rows
#: across machines, plus the materialization point of a shared result.
_BOUNDARY_OPS = (
    PhysRepartition,
    PhysRangeRepartition,
    PhysMerge,
    PhysSpool,
    PhysBroadcastJoin,
)


def _is_boundary(node: PhysicalPlan) -> bool:
    return isinstance(node.op, _BOUNDARY_OPS)


def _partition_local(node: PhysicalPlan, validate: bool) -> bool:
    """True if the operator computes partition *i* of its output from
    partition *i* of its inputs alone.

    With runtime validation on, operators whose correctness checks span
    partitions (co-location of join keys and grouping keys, single-
    partition occupancy of final top-n) are excluded so that slicing a
    vertex into per-partition tasks never weakens a check.
    """
    op = node.op
    if isinstance(op, (PhysFilter, PhysProject, PhysSort)):
        return True
    if isinstance(op, (PhysStreamAgg, PhysHashAgg, PhysTopN)):
        return op.mode is GroupByMode.LOCAL or not validate
    if isinstance(op, (PhysMergeJoin, PhysHashJoin)):
        return not validate
    return False


@dataclass
class Vertex:
    """One schedulable unit: a fused pipeline between boundaries."""

    vid: int
    #: Topmost plan node of the fragment — its output is the vertex's.
    root: PhysicalPlan
    #: Fragment operator names, innermost first (execution order).
    op_names: List[str] = field(default_factory=list)
    #: ``id(child plan node)`` -> producing vertex id, for every edge
    #: that leaves the fragment.
    cut_nodes: Dict[int, int] = field(default_factory=dict)
    #: Producing vertices, in first-reference order (duplicates removed).
    deps: List[int] = field(default_factory=list)
    #: Vertices consuming this vertex's output (filled by the builder).
    consumers: List[int] = field(default_factory=list)
    #: True for the single vertex materializing a shared spool.
    is_spool: bool = False
    #: Producing vertex id of every fragment edge that reads a spool
    #: cut, one entry per reference (used by the scheduler to account
    #: spool reads once per reference, as the sequential executor does).
    spool_cut_vids: List[int] = field(default_factory=list)
    #: True if every fragment operator is partition-local, so the
    #: scheduler may run one task per partition.
    partitionwise: bool = False
    #: Output paths this vertex's result (transitively) feeds, sorted.
    #: A vertex serving outputs of more than one script of a merged
    #: batch (paths are ``<label>/...``-prefixed there) is *shared*
    #: cross-script work that executes once instead of per script.
    serves: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"V{self.vid:02d}:{self.root.op.name}"


@dataclass
class StageGraph:
    """All vertices of a plan, in deterministic bottom-up order."""

    vertices: List[Vertex]
    #: Vertex producing the plan root's output.
    root_vid: int = 0

    def __len__(self) -> int:
        return len(self.vertices)

    def spool_vertices(self) -> List[Vertex]:
        return [v for v in self.vertices if v.is_spool]

    def render(self) -> str:
        """Readable listing, one line per vertex."""
        lines = [f"{len(self.vertices)} vertices:"]
        for v in self.vertices:
            deps = (
                " <- " + ",".join(f"V{d:02d}" for d in v.deps)
                if v.deps else ""
            )
            tags = []
            if v.is_spool:
                tags.append("spool")
            if v.partitionwise:
                tags.append("partitionwise")
            tag = f" [{','.join(tags)}]" if tags else ""
            lines.append(
                f"  {v.name}{tag}{deps}: {' → '.join(v.op_names)}"
            )
        return "\n".join(lines)


def build_stage_graph(plan: PhysicalPlan, validate: bool = True) -> StageGraph:
    """Cut ``plan`` into vertices.

    The walk expands the DAG as a tree — re-visiting shared non-spool
    nodes once per reference, exactly like the sequential executor
    re-runs them — except at ``Spool`` nodes, which are memoized so the
    materializing vertex exists (and therefore executes) exactly once.
    """
    vertices: List[Vertex] = []
    spool_vids: Dict[int, int] = {}

    def new_vertex(root: PhysicalPlan) -> Vertex:
        vertex = Vertex(vid=len(vertices), root=root)
        vertices.append(vertex)
        return vertex

    def add_cut(vertex: Vertex, child: PhysicalPlan, cvid: int) -> None:
        vertex.cut_nodes[id(child)] = cvid
        if cvid not in vertex.deps:
            vertex.deps.append(cvid)
        if isinstance(child.op, PhysSpool):
            vertex.spool_cut_vids.append(cvid)

    def visit(node: PhysicalPlan) -> int:
        """Returns the id of the vertex producing ``node``'s output."""
        if isinstance(node.op, PhysSpool):
            cached = spool_vids.get(id(node))
            if cached is not None:
                return cached
        child_vids = [visit(child) for child in node.children]
        fuse_target = vertices[child_vids[0]] if child_vids else None
        if (
            fuse_target is None
            or _is_boundary(node)
            or fuse_target.is_spool
        ):
            vertex = new_vertex(node)
            for child, cvid in zip(node.children, child_vids):
                add_cut(vertex, child, cvid)
        else:
            vertex = fuse_target
            vertex.root = node
            for child, cvid in zip(node.children[1:], child_vids[1:]):
                add_cut(vertex, child, cvid)
        vertex.op_names.append(node.op.name)
        if isinstance(node.op, PhysSpool):
            vertex.is_spool = True
            spool_vids[id(node)] = vertex.vid
        return vertex.vid

    root_vid = visit(plan)

    # Second pass: consumer lists and partitionwise eligibility.  The
    # eligibility check re-walks each fragment from its root down to the
    # cut points (cheap: fragments are small pipelines).
    for vertex in vertices:
        for dep in vertex.deps:
            vertices[dep].consumers.append(vertex.vid)
    for vertex in vertices:
        if vertex.is_spool or not vertex.deps:
            # Spool vertices are pure pass-through builds; source
            # vertices (Extract) distribute rows globally.
            vertex.partitionwise = False
            continue
        local = True
        stack = [vertex.root]
        while stack and local:
            node = stack.pop()
            if id(node) in vertex.cut_nodes:
                continue
            local = _partition_local(node, validate)
            stack.extend(node.children)
        vertex.partitionwise = local

    # Third pass: output attribution.  A plan node serves output path P
    # iff it lies inside P's producing subtree; a vertex serves the
    # union over its fragment's nodes.  (Attribution is plan-level: a
    # conventionally duplicated subtree credits each expanded copy with
    # every output the *node* feeds — only spooled sharing guarantees
    # the serving work ran once.)
    node_serves: Dict[int, set] = {}
    output_nodes: List[PhysicalPlan] = []
    stack, seen = [plan], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node.op, PhysOutput):
            output_nodes.append(node)
        stack.extend(node.children)
    for out in output_nodes:
        stack, seen = [out], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            node_serves.setdefault(id(node), set()).add(out.op.path)
            stack.extend(node.children)
    for vertex in vertices:
        paths: set = set()
        stack, seen = [vertex.root], set()
        while stack:
            node = stack.pop()
            if id(node) in seen or id(node) in vertex.cut_nodes:
                continue
            seen.add(id(node))
            paths |= node_serves.get(id(node), set())
            stack.extend(node.children)
        vertex.serves = tuple(sorted(paths))
    return StageGraph(vertices=vertices, root_vid=root_vid)
