"""The report writers as they were before reports held residual arrays.

``report_doc`` builds a report's machine document as a dict, for
``json.dumps(doc, sort_keys=True, indent=2)``, and ``report_lines`` its text
lines; both read ``Report.violations``.  ``io.render_report`` must give the
same bytes.
"""

from prenovikov.labels import render_identity


def report_lines(report, depth: int = 0) -> list[str]:
    pad = "  " * depth
    verdict = "PASS" if report.passed else "FAIL"
    lines = [f"{pad}{verdict} {report.name}"]
    if report.identities:
        lines.append(pad + "  checked: " + ", ".join(render_identity(i) for i in report.identities))
    for v in report.violations:
        witness = ",".join(v.witness)
        residual = ", ".join(v.residual)
        lines.append(f"{pad}  {render_identity(v.identity)} violated at ({witness}): residual ({residual})")
    for section in report.sections:
        lines.extend(report_lines(section, depth + 1))
    return lines


def report_doc(report) -> dict:
    return {
        "kind": "report",
        "name": report.name,
        "verdict": "pass" if report.passed else "fail",
        "identities": list(report.identities),
        "violations": [
            {
                "identity": v.identity,
                "witness_index": list(v.witness_index),
                "witness": list(v.witness),
                "residual": list(v.residual),
            }
            for v in report.violations
        ],
        "sections": [report_doc(s) for s in report.sections],
    }
