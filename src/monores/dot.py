"""DOT rendering of a blow-up tower: one cluster per stage, each the
corner-adjacency graph of that stage's manifold, its nodes labeled by
their index sets and its edges by their shared labels (`Edge.shared`,
read off the edge matrix).

Every id and label is written as a DOT quoted string, with `\\` and `"`
escaped (`_escaped`), so any corner id or component label gives valid DOT.
"""

from __future__ import annotations

from .blowup import Star
from .manifold import MonomialManifold


def _escaped(text: str) -> str:
    """`text` for the inside of a DOT quoted string: `\\` written `\\\\`
    and `"` written `\\"`."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _label_set(labels) -> str:
    return ",".join(_escaped(lab) for lab in sorted(labels))


def _node_label(cid: str, index_set) -> str:
    return f"{_escaped(cid)}\\n{{{_label_set(index_set)}}}"


def _manifold_body(m: MonomialManifold, prefix: str = "", indent: str = "  ") -> list[str]:
    lines = []
    for cid, corner in m.corners.items():
        node = _escaped(prefix + cid)
        lines.append(f'{indent}"{node}" [label="{_node_label(cid, corner.index_set)}"];')
    for e in m.edges:
        p, q = _escaped(prefix + e.p), _escaped(prefix + e.q)
        lines.append(f'{indent}"{p}" -- "{q}" [label="{_label_set(e.shared)}"];')
    return lines


def export_dot_star(star: Star) -> str:
    """One cluster per tower stage, from the root up to the end manifold."""
    lines = ["graph star {", "  node [shape=box];"]
    stages = [("root", star.root)] + [
        (f"step{k + 1}", s.after) for k, s in enumerate(star.steps)
    ]
    for k, (name, m) in enumerate(stages):
        title = name if name == "root" else f"{name}: blow up {{{_label_set(star.steps[k - 1].center_pair)}}}"
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="{title}";')
        lines += _manifold_body(m, prefix=f"{k}:", indent="    ")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
