"""Command-line front end: block computations, table emission,
resolution/A-infinity reports, SVG diagram rendering and result caching.

Exit codes: 0 success, 1 domain error (weight/block mismatch, dead
product, ...), 2 usage error (bad flags, malformed diagram strings).
Output is an aligned text table by default or a JSON document with
``--format json``; JSON documents round-trip through ``json`` verbatim.
``--cache DIR`` (default from $ARCKIT_CACHE) keeps each document, and each
resolution ``resolve`` computes, in one store (one file per result, named
by the package source and the arguments, written atomically); warm runs
print the same bytes, and a damaged entry is recomputed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# the algebra modules are imported by the functions that use them, so a
# cache hit or a usage error is answered before any of them loads
from . import cache

__all__ = ["main"]

CACHE_ENV = "ARCKIT_CACHE"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_block(p: argparse.ArgumentParser):
    p.add_argument("-m", type=int, required=True, help="number of 'v' labels")
    p.add_argument("-n", type=int, required=True, help="number of '^' labels")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p.add_argument(
        "--cache",
        default=os.environ.get(CACHE_ENV),
        metavar="DIR",
        help=f"cache directory (default ${CACHE_ENV})",
    )
    p.add_argument("-o", "--output", metavar="PATH", help="write output to PATH")


def _add_weight(p: argparse.ArgumentParser, name: str):
    flag = "lambda" if name == "lam" else name
    j_flag = "--j" if name == "lam" else f"--{name}-j"
    kl_flag = "--kl" if name == "lam" else f"--{name}-kl"
    p.add_argument(f"--{flag}", dest=name, metavar="WEIGHT", help="^/v string")
    p.add_argument(
        j_flag,
        dest=f"{name}_j",
        type=int,
        metavar="J",
        help=f"n=1 shorthand for --{flag}",
    )
    p.add_argument(
        kl_flag,
        dest=f"{name}_kl",
        metavar="K,L",
        help=f"n=2 shorthand for --{flag}",
    )


def _parse_weight(args, name: str, m: int, n: int) -> Weight:
    flag = "lambda" if name == "lam" else name
    text = getattr(args, name)
    # render's --weight has no shorthand flags
    j = getattr(args, f"{name}_j", None)
    kl = getattr(args, f"{name}_kl", None)
    given = [x for x in (text, j, kl) if x is not None]
    if len(given) != 1:
        raise UsageError(f"give exactly one weight flag for --{flag}")
    from .diagrams import Weight

    if text is not None:
        try:
            w = Weight.parse(text)
        except ValueError as e:
            raise UsageError(f"malformed weight {text!r}: {e}") from None
    elif j is not None:
        if n != 1:
            raise UsageError("the j shorthand only applies to n=1 blocks")
        w = Weight.from_j(m, j)
    else:
        if n != 2:
            raise UsageError("the k,l shorthand only applies to n=2 blocks")
        try:
            k, l = (int(x) for x in kl.split(","))
        except ValueError:
            raise UsageError(f"bad index pair {kl!r}, expected K,L") from None
        w = Weight.from_kl(m, k, l)
    if w.block != (m, n):
        raise ValueError(f"weight {w} lies in block ({w.m}|{w.n}), not ({m}|{n})")
    return w


def _parse_diagram(text: str, m: int, n: int) -> OrientedCircleDiagram:
    from .diagrams import OrientedCircleDiagram

    try:
        d = OrientedCircleDiagram.parse(text)
    except ValueError as e:
        raise UsageError(f"malformed diagram {text!r}: {e}") from None
    if d.weight.block != (m, n):
        raise ValueError(f"diagram weight {d.weight} not in block ({m}|{n})")
    return d


def _any_weight_flag(args) -> bool:
    return any(getattr(args, w + x) is not None for w in ("lam", "mu") for x in ("", "_j", "_kl"))


def _block_weights(m: int, n: int):
    from .diagrams import weights_in_block

    return weights_in_block(m, n)


# ---------------------------------------------------------------------------
# subcommand documents
# ---------------------------------------------------------------------------


def _doc_basis(args) -> dict:
    m, n = args.m, args.n
    lam = mu = None
    if _any_weight_flag(args):  # a μ flag alone fails on the missing λ, before any algebra loads
        lam, mu = _parse_weight(args, "lam", m, n), _parse_weight(args, "mu", m, n)
    from .arcalg import basis, hom_basis

    _block_weights(m, n)
    if lam is not None:
        diagrams = hom_basis(lam, mu)
        scope = f"e_lambda K e_mu for lambda={lam}, mu={mu}"
    else:
        diagrams = basis(m, n)
        scope = "full algebra"
    return {
        "block": [m, n],
        "scope": scope,
        "count": len(diagrams),
        "diagrams": [
            {"diagram": str(d), "degree": d.degree} for d in diagrams
        ],
    }


def _doc_multiply(args) -> dict:
    from .arcalg import AlgebraElement, multiply

    m, n = args.m, args.n
    _block_weights(m, n)
    x = _parse_diagram(args.x, m, n)
    y = _parse_diagram(args.y, m, n)
    product = multiply(
        AlgebraElement.from_diagram(x), AlgebraElement.from_diagram(y)
    )
    terms = sorted(
        ((str(d), c) for d, c in product), key=lambda t: t[0]
    )
    return {
        "block": [m, n],
        "x": str(x),
        "y": str(y),
        "zero": product.is_zero(),
        "terms": [{"coeff": str(c), "diagram": d} for d, c in terms],
    }


def _doc_klpoly(args) -> dict:
    from .repmod import kl_poly_closed, kl_poly_recursive

    m, n = args.m, args.n
    _block_weights(m, n)
    lam = _parse_weight(args, "lam", m, n)
    mu = _parse_weight(args, "mu", m, n)
    out = {"block": [m, n], "lambda": str(lam), "mu": str(mu)}
    if args.method in ("closed", "both"):
        out["closed"] = str(kl_poly_closed(lam, mu))
    if args.method in ("recursive", "both"):
        out["recursive"] = str(kl_poly_recursive(lam, mu))
    if args.method == "both" and out["closed"] != out["recursive"]:
        raise ArithmeticError("closed and recursive KL polynomials disagree")
    out["polynomial"] = out.get("closed", out.get("recursive"))
    return out


def _matrix_doc(m: int, n: int, table) -> dict:
    ws = _block_weights(m, n)
    return {
        "block": [m, n],
        "weights": [str(w) for w in ws],
        "entries": {
            f"{lam},{mu}": str(p)
            for (lam, mu), p in sorted(
                table.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
            )
            if not p.is_zero()
        },
    }


def _doc_decomp(args) -> dict:
    from .repmod import decomposition_matrix

    return _matrix_doc(args.m, args.n, decomposition_matrix(args.m, args.n))


def _doc_cartan(args) -> dict:
    from .repmod import cartan_matrix

    return _matrix_doc(args.m, args.n, cartan_matrix(args.m, args.n))


def _doc_resolve(args) -> dict:
    from .resolve import ResolutionCache, resolve_cone, resolve_generic, verify_resolution

    m, n = args.m, args.n
    _block_weights(m, n)
    lam = _parse_weight(args, "lam", m, n)
    stored = ResolutionCache(args.cache) if args.cache else None
    key = (m, n, str(lam), args.method)
    complex_ = stored.load(key) if stored else None
    if complex_ is None:
        fn = resolve_cone if args.method == "cone" else resolve_generic
        complex_ = fn(lam)
        if stored:
            try:
                stored.store(key, complex_)
            except OSError:
                pass  # an unwritable cache: main warns when it stores the document there
    doc = {
        "block": [m, n],
        "lambda": str(lam),
        "method": args.method,
        "length": len(complex_) - 1,
        "terms": [
            [str(w) for w in row] for row in complex_.terms()
        ],
    }
    if args.verify:
        issues = verify_resolution(complex_, lam)
        doc["verified"] = not issues
        doc["issues"] = issues
    return doc


def _doc_extdim(args) -> dict:
    if args.all and _any_weight_flag(args):
        raise UsageError("--all takes no weight flags")
    from .extalg import ext_dims, shelton_dims

    m, n = args.m, args.n
    ws = _block_weights(m, n)
    if args.all:
        pairs = [(lam, mu) for lam in ws for mu in ws]
    else:
        lam = _parse_weight(args, "lam", m, n)
        mu = _parse_weight(args, "mu", m, n)
        pairs = [(lam, mu)]
    rows = []
    total = 0
    oracle_total = 0
    all_match = True
    for lam, mu in pairs:
        dims = ext_dims(lam, mu)
        row = {
            "lambda": str(lam),
            "mu": str(mu),
            "dims": {str(k): d for k, d in sorted(dims.items())},
            "total": sum(dims.values()),
        }
        total += row["total"]
        if args.oracle == "shelton":
            oracle = shelton_dims(lam, mu)
            row["oracle_dims"] = {str(k): d for k, d in sorted(oracle.items())}
            row["match"] = oracle == dims
            all_match = all_match and row["match"]
            oracle_total += sum(oracle.values())
        rows.append(row)
    doc = {"block": [m, n], "rows": rows, "total": total}
    if args.oracle == "shelton":
        doc["oracle_total"] = oracle_total
        doc["oracle_match"] = all_match
    return doc


def _doc_extbasis(args) -> dict:
    from .extalg import ext_basis

    m, n = args.m, args.n
    _block_weights(m, n)
    lam = _parse_weight(args, "lam", m, n)
    mu = _parse_weight(args, "mu", m, n)
    classes = ext_basis(lam, mu, method=args.method)
    return {
        "block": [m, n],
        "lambda": str(lam),
        "mu": str(mu),
        "method": args.method,
        "count": len(classes),
        "classes": [
            {"label": c.label, "k": c.k, "j": c.j} for c in classes
        ],
    }


def _doc_multtable(args) -> dict:
    from .ainfty import Splitting
    from .extalg import BASIS_LABELS, compose, construct_element, in_range

    m, n = args.m, args.n
    if n != 2:
        raise ValueError("multtable requires an n=2 block")
    ws = _block_weights(m, n)
    families: dict[tuple[str, str], dict] = {
        (x, y): {"products": 0, "nonzero": 0, "results": set()}
        for x in BASIS_LABELS
        for y in BASIS_LABELS
    }
    # each ordered pair of distinct weights: its nonzero labelled elements,
    # in label order
    elements = {
        (lam, mu): [
            (label, f)
            for label in BASIS_LABELS
            if in_range(label, lam, mu) and not (f := construct_element(label, lam, mu)).is_zero()
        ]
        for lam in ws
        for mu in ws
        if lam != mu
    }
    # each pair is split, its Ext basis verified, once, as its first product
    # is read; J and F̃ are not always H classes, so Π reads each product
    split = Splitting(m, n, "canonical-n2")
    for lam in ws:
        for mid in ws:
            if mid == lam:
                continue
            for mu in ws:
                if mu == mid:
                    continue
                for xl, x in elements[lam, mid]:
                    for yl, y in elements[mid, mu]:
                        cell = families[(xl, yl)]
                        cell["products"] += 1
                        coeffs = split.pi_coefficients(compose(x, y))
                        nonzero = {key[0] for key, c in coeffs.items() if c}
                        if nonzero:
                            cell["nonzero"] += 1
                            cell["results"] |= nonzero
    return {
        "block": [m, n],
        "labels": list(BASIS_LABELS),
        "families": {
            f"{x}*{y}": {
                "products": cell["products"],
                "nonzero": cell["nonzero"],
                "results": sorted(cell["results"]),
            }
            for (x, y), cell in sorted(families.items())
        },
    }


def _doc_ainfty(args) -> dict:
    m, n = args.m, args.n
    if args.max_arity < 2:
        raise UsageError(f"--max-arity must be at least 2, got {args.max_arity}")
    from .ainfty import build_splitting, stasheff_check, vanishing_report

    _block_weights(m, n)
    split = build_splitting(m, n, "canonical-n2" if args.mode == "canonical" else "generic")
    report = vanishing_report(split, args.max_arity)
    stasheff = stasheff_check(split, args.max_arity)
    return {
        "block": [m, n],
        "mode": args.mode,
        "max_arity": args.max_arity,
        "general_vanishing_bound": report["general_bound"],
        "q_lambda2_zero": report["q_lambda2_zero"],
        "q_lambda2_products_zero": report["q_lambda2_products_zero"],
        "q_lambda3_zero": report["q_lambda3_zero"],
        "products": {
            str(arity): {
                "nonzero_tuples": len(data["nonzero_tuples"]),
                "max_abs_coefficient": str(data["max_abs_coefficient"]),
            }
            for arity, data in sorted(report["per_arity"].items())
        },
        "stasheff": {
            "checked": stasheff["checked"],
            "violations": len(stasheff["violations"]),
        },
    }


def _doc_quiver(args) -> dict:
    from .ainfty import ext_quiver
    from .extalg import end_quiver

    m, n = args.m, args.n
    _block_weights(m, n)
    if args.algebra == "end":
        q = end_quiver(m, n)
        return {
            "block": [m, n],
            "algebra": "end",
            "vertices": [str(w) for w in q["vertices"]],
            "arrows": [[str(s), str(t)] for s, t in q["arrows"]],
            "relations": [
                [
                    {"coeff": str(c), "path": [str(w) for w in path]}
                    for c, path in rel
                ]
                for rel in q["relations"]
            ],
        }
    q = ext_quiver(m, n)

    def factor(g):  # a generic class is named by its generator entry's k and j too
        return [g[0], str(g[1]), str(g[2]), *(g[3:] if g[0] == "generic" else ())]

    return {
        "block": [m, n],
        "algebra": "ext",
        "vertices": [str(w) for w in q["vertices"]],
        "generators": [
            {"label": lab, "source": str(s), "target": str(t), "k": k, "j": j}
            for lab, s, t, k, j in q["generators"]
        ],
        "relations": [
            {
                "left": factor(g1),
                "right": factor(g2),
                "value": {  # a generic class's key names its position too
                    ",".join(map(str, key if key[0] == "generic" else key[:3])): str(c)
                    for key, c in coeffs.items()
                },
            }
            for g1, g2, coeffs in q["relations"]
        ],
    }


# ---------------------------------------------------------------------------
# text rendering of documents
# ---------------------------------------------------------------------------


def _grid(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _text_basis(doc: dict) -> str:
    head = f"block ({doc['block'][0]}|{doc['block'][1]}), {doc['scope']}: {doc['count']} diagrams"
    rows = [["degree", "diagram"]] + [
        [str(d["degree"]), d["diagram"]] for d in doc["diagrams"]
    ]
    return head + "\n" + _grid(rows)


def _text_multiply(doc: dict) -> str:
    if doc["zero"]:
        return "0"
    return "\n".join(f"{t['coeff']} * {t['diagram']}" for t in doc["terms"])


def _text_klpoly(doc: dict) -> str:
    return doc["polynomial"]


def _text_matrix(doc: dict) -> str:
    ws = doc["weights"]
    rows = [[""] + ws]
    for lam in ws:
        rows.append([lam] + [doc["entries"].get(f"{lam},{mu}", ".") for mu in ws])
    return _grid(rows)


def _text_resolve(doc: dict) -> str:
    lines = [
        f"linear resolution of M({doc['lambda']}) "
        f"({doc['method']}), length {doc['length']}"
    ]
    for i, row in enumerate(doc["terms"]):
        lines.append(f"  P_{i}: " + " + ".join(f"P({w})<{i}>" for w in row))
    if "verified" in doc:
        lines.append(
            "verified: ok" if doc["verified"] else "verified: FAILED"
        )
        lines.extend(f"  issue: {t}" for t in doc["issues"])
    return "\n".join(lines)


def _text_extdim(doc: dict) -> str:
    header = ["lambda", "mu", "dims (k:dim)", "total"]
    with_oracle = "oracle_total" in doc
    if with_oracle:
        header += ["oracle", "match"]
    rows = [header]
    for r in doc["rows"]:
        dims = " ".join(f"{k}:{d}" for k, d in r["dims"].items()) or "-"
        row = [r["lambda"], r["mu"], dims, str(r["total"])]
        if with_oracle:
            oracle = " ".join(f"{k}:{d}" for k, d in r["oracle_dims"].items()) or "-"
            row += [oracle, "yes" if r["match"] else "NO"]
        rows.append(row)
    tail = [f"total: {doc['total']}"]
    if with_oracle:
        tail.append(
            f"oracle total: {doc['oracle_total']} "
            f"({'identical' if doc['oracle_match'] else 'MISMATCH'})"
        )
    return _grid(rows) + "\n" + "\n".join(tail)


def _text_extbasis(doc: dict) -> str:
    head = (
        f"Ext(M({doc['lambda']}), M({doc['mu']})): {doc['count']} classes "
        f"({doc['method']})"
    )
    rows = [["label", "k", "j"]] + [
        [c["label"] or "-", str(c["k"]), str(c["j"])] for c in doc["classes"]
    ]
    return head + "\n" + _grid(rows)


def _text_multtable(doc: dict) -> str:
    labels = doc["labels"]
    rows = [["x\\y"] + labels]
    for x in labels:
        row = [x]
        for y in labels:
            cell = doc["families"][f"{x}*{y}"]
            if cell["products"] == 0:
                row.append("-")
            elif cell["nonzero"] == 0:
                row.append("0")
            else:
                row.append(",".join(cell["results"]))
        rows.append(row)
    return _grid(rows)


def _text_ainfty(doc: dict) -> str:
    parts = []
    for arity, data in doc["products"].items():
        if data["nonzero_tuples"]:
            parts.append(f"m{arity}: nonzero ({data['nonzero_tuples']} tuples)")
        else:
            parts.append(f"m{arity}: 0")
    lines = [
        f"block ({doc['block'][0]}|{doc['block'][1]}), mode {doc['mode']}, "
        f"arities 2..{doc['max_arity']}",
        ", ".join(parts),
        f"Q(lambda_2) = 0: {doc['q_lambda2_zero']}",
        f"Q(lambda_2)*Q(lambda_2) = 0: {doc['q_lambda2_products_zero']}",
        f"Q(lambda_3) = 0: {doc['q_lambda3_zero']}",
        f"stasheff identities: {doc['stasheff']['checked']} checked, "
        f"{doc['stasheff']['violations']} violations",
        f"general vanishing bound: m_l = 0 for l > {doc['general_vanishing_bound']}",
    ]
    return "\n".join(lines)


def _text_quiver(doc: dict) -> str:
    lines = [
        f"{doc['algebra']} quiver of block ({doc['block'][0]}|{doc['block'][1]}): "
        f"{len(doc['vertices'])} vertices"
    ]
    if doc["algebra"] == "end":
        lines.append(f"arrows ({len(doc['arrows'])}):")
        lines.extend(f"  {s} -> {t}" for s, t in doc["arrows"])
        lines.append(f"relations: {len(doc['relations'])}")
    else:
        lines.append(f"generators ({len(doc['generators'])}):")
        lines.extend(
            f"  {g['label']}: {g['source']} -> {g['target']}  (k={g['k']}, j={g['j']})"
            for g in doc["generators"]
        )
        lines.append(f"relations: {len(doc['relations'])}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_STEP = 40  # vertex spacing in user units
_RAY = 30  # ray length in user units


def _fmt(x: float) -> str:
    return f"{x:.1f}".rstrip("0").rstrip(".")


def _arc_path(x1: float, x2: float, y: float, downward: bool) -> str:
    rx = (x2 - x1) / 2
    ry = 0.7 * rx
    sweep = 0 if downward else 1
    return (
        f"M {_fmt(x1)} {_fmt(y)} "
        f"A {_fmt(rx)} {_fmt(ry)} 0 0 {sweep} {_fmt(x2)} {_fmt(y)}"
    )


def _svg_line_elements(
    out: list[str],
    x0: float,
    y: float,
    labels,
    cups,
    cup_rays,
    caps,
    cap_rays,
):
    size = len(labels)
    x = lambda p: x0 + _STEP / 2 + p * _STEP
    out.append(
        f'<line x1="{_fmt(x(0) - 15)}" y1="{_fmt(y)}" '
        f'x2="{_fmt(x(size - 1) + 15)}" y2="{_fmt(y)}" class="axis"/>'
    )
    for p, lab in enumerate(labels):
        glyph = "∧" if lab == "^" else "∨"
        out.append(
            f'<text x="{_fmt(x(p))}" y="{_fmt(y - 4)}" class="lbl">{glyph}</text>'
        )
    for i, j in sorted(cups):
        out.append(f'<path d="{_arc_path(x(i), x(j), y, False)}" class="arc"/>')
    for p in sorted(cup_rays):
        out.append(
            f'<line x1="{_fmt(x(p))}" y1="{_fmt(y)}" '
            f'x2="{_fmt(x(p))}" y2="{_fmt(y + _RAY)}" class="arc"/>'
        )
    for i, j in sorted(caps):
        out.append(f'<path d="{_arc_path(x(i), x(j), y, True)}" class="arc"/>')
    for p in sorted(cap_rays):
        out.append(
            f'<line x1="{_fmt(x(p))}" y1="{_fmt(y)}" '
            f'x2="{_fmt(x(p))}" y2="{_fmt(y - _RAY)}" class="arc"/>'
        )


_SVG_STYLE = (
    "<style>"
    ".axis{stroke:#999;stroke-width:1;}"
    ".arc{stroke:#000;stroke-width:1.5;fill:none;}"
    ".lbl{font:12px monospace;text-anchor:middle;}"
    ".ann{font:11px monospace;text-anchor:middle;fill:#333;}"
    "</style>"
)


def _svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, _SVG_STYLE] + body + ["</svg>"]) + "\n"


def render_diagram_svg(diagram: OrientedCircleDiagram) -> str:
    size = diagram.weight.size
    body: list[str] = []
    _svg_line_elements(
        body,
        0,
        70,
        diagram.weight.labels,
        diagram.cup.cups,
        diagram.cup.rays,
        diagram.cap.cups,
        diagram.cap.rays,
    )
    return _svg_document(size * _STEP, 140, body)


def render_trace_svg(panels) -> str:
    size = len(panels[0].bottom_labels)
    panel_w = size * _STEP + 30
    top_y, bottom_y, height = 60, 150, 215
    body: list[str] = []
    for idx, panel in enumerate(panels):
        x0 = idx * panel_w
        if panel.collapsed:
            _svg_line_elements(
                body,
                x0,
                (top_y + bottom_y) / 2,
                panel.bottom_labels,
                panel.cup_arcs,
                panel.cup_rays,
                panel.cap_arcs,
                panel.cap_rays,
            )
        else:
            # bottom line: cups of the first factor below, remaining middle
            # caps above
            _svg_line_elements(
                body,
                x0,
                bottom_y,
                panel.bottom_labels,
                panel.cup_arcs,
                panel.cup_rays,
                panel.middle_arcs,
                (),
            )
            # top line: caps of the second factor above, middle cups below
            _svg_line_elements(
                body,
                x0,
                top_y,
                panel.top_labels,
                panel.middle_arcs,
                (),
                panel.cap_arcs,
                panel.cap_rays,
            )
            x = lambda p: x0 + _STEP / 2 + p * _STEP
            for p in panel.verticals:
                body.append(
                    f'<line x1="{_fmt(x(p))}" y1="{_fmt(bottom_y)}" '
                    f'x2="{_fmt(x(p))}" y2="{_fmt(top_y)}" class="arc"/>'
                )
        centre = x0 + panel_w / 2 - 15
        if panel.annotation:
            body.append(
                f'<text x="{_fmt(centre)}" y="{_fmt(height - 14)}" class="ann">'
                f"{panel.annotation}</text>"
            )
        body.append(
            f'<text x="{_fmt(centre)}" y="{_fmt(height - 2)}" class="ann">'
            f"components: {' '.join(panel.component_types)}</text>"
        )
        if idx + 1 < len(panels):
            ax = x0 + panel_w - 22
            body.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt((top_y + bottom_y) / 2)}" '
                f'x2="{_fmt(ax + 14)}" y2="{_fmt((top_y + bottom_y) / 2)}" '
                'class="axis"/>'
            )
    return _svg_document(len(panels) * panel_w, height, body)


def _doc_render(args) -> dict:
    if len([x for x in (args.weight, args.diagram, args.product) if x]) != 1:
        raise UsageError("give exactly one of --weight/--diagram/--product")
    from .arcalg import idempotent, surgery_trace

    m, n = args.m, args.n
    _block_weights(m, n)
    if args.weight:
        (diagram, _), = list(idempotent(_parse_weight(args, "weight", m, n)))
        svg = render_diagram_svg(diagram)
    elif args.diagram:
        svg = render_diagram_svg(_parse_diagram(args.diagram, m, n))
    else:
        x, y = (_parse_diagram(d, m, n) for d in args.product)
        svg = render_trace_svg(surgery_trace(x, y))
    return {"block": [m, n], "svg": svg}


def _text_render(doc: dict) -> str:
    return doc["svg"]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


# the one list of subcommands: name -> (help, weight flags, document,
# text renderer, further arguments as {flag: add_argument keywords})
_COMMANDS = {
    "basis": ("list algebra basis diagrams", ("lam", "mu"), _doc_basis, _text_basis, {}),
    "multiply": ("product of two basis diagrams", (), _doc_multiply, _text_multiply, {
        "x": dict(help="first diagram 'cups=... rays=... | weight | ...'"),
        "y": dict(help="second diagram"),
    }),
    "klpoly": ("combinatorial KL polynomial", ("lam", "mu"), _doc_klpoly, _text_klpoly, {
        "--method": dict(choices=("both", "closed", "recursive"), default="both"),
    }),
    "decomp": ("q-decomposition matrix", (), _doc_decomp, _text_matrix, {}),
    "cartan": ("graded Cartan matrix", (), _doc_cartan, _text_matrix, {}),
    "resolve": ("linear projective resolution", ("lam",), _doc_resolve, _text_resolve, {
        "--method": dict(choices=("cone", "generic"), default="cone"),
        "--verify": dict(action="store_true"),
    }),
    "extdim": ("Ext dimensions between cell modules", ("lam", "mu"), _doc_extdim, _text_extdim, {
        "--all": dict(action="store_true", help="all ordered pairs"),
        "--oracle": dict(choices=("shelton",), help="oracle column"),
    }),
    "extbasis": ("canonical Ext basis classes", ("lam", "mu"), _doc_extbasis, _text_extbasis, {
        "--method": dict(choices=("auto", "generic"), default="auto"),
    }),
    "multtable": ("Ext multiplication pattern table (n=2)", (), _doc_multtable, _text_multtable, {}),
    "ainfty": ("A-infinity minimal model report", (), _doc_ainfty, _text_ainfty, {
        "--mode": dict(choices=("generic", "canonical"), default="generic"),
        "--max-arity": dict(type=int, default=5),
    }),
    "quiver": ("quiver with relations", (), _doc_quiver, _text_quiver, {
        "--algebra": dict(choices=("end", "ext"), default="end"),
    }),
    "render": ("deterministic SVG rendering", (), _doc_render, _text_render, {
        "--weight": dict(metavar="WEIGHT", help="render e_lambda"),
        "--diagram": dict(metavar="DIAGRAM", help="render one basis diagram"),
        "--product": dict(nargs=2, metavar=("X", "Y"), help="render the surgery trace of X*Y"),
    }),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the subcommand ``only`` alone;
    ``main`` passes ``argv[0]``, so a run builds the subparser it uses.
    With one subparser, usage and error lines still name every subcommand."""
    parser = argparse.ArgumentParser(
        prog="arckit",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    names = [only] if only in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        help_, weights, _, _, further = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        _add_block(p)
        _add_common(p)
        for w in weights:
            _add_weight(p, w)
        for flag, keywords in further.items():
            p.add_argument(flag, **keywords)
    return parser


def _cache_path(cache_dir: str, args) -> str:
    """The store entry of the command's JSON document: every parsed
    argument except the output format, the cache and the output path."""
    relevant = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("format", "cache", "output")
    }
    return cache.entry_path(cache_dir, f"cli {relevant!r}")


def _load_document(path: str) -> dict | None:
    text = cache.load(path)
    try:
        return json.loads(text) if text is not None else None
    except ValueError:  # an entry that does not parse is a miss
        return None


def _emit(args, text: str):
    text = text if text.endswith("\n") else text + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    _, _, make_document, render_text, _ = _COMMANDS[args.subcommand]
    try:
        cache_file = _cache_path(args.cache, args) if args.cache else None
        document = _load_document(cache_file) if cache_file else None
        if document is None:
            document = make_document(args)
            if cache_file:
                try:
                    cache.store(cache_file, json.dumps(document, indent=2, sort_keys=True))
                except OSError as e:  # the answer stands without its cache entry
                    print(f"warning: the result was not cached: {e}", file=sys.stderr)
        if args.format == "json":
            _emit(args, json.dumps(document, indent=2, sort_keys=True))
        else:
            _emit(args, render_text(document))
        return 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
