"""CSV and SVG emission for sweep results."""

import math

__all__ = ["CSV_HEADER", "write_csv", "emit_csv", "emit_plot"]

CSV_HEADER = ("k,sup_nabla_f_L2,sup_nabla_f_H1,"
              "sup_eta_gap_H1,sup_etadot_gap_H1,energy_drift,converged")


def write_csv(path, header, rows):
    """Write a header line and one line per row of numbers.

    Booleans are written true/false and everything else as repr() of a
    Python float, the shortest string that parses back to the same
    double, which keeps reruns byte-comparable.
    """
    lines = [header] + [",".join(_cell(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(float(value))


def emit_csv(rows, path):
    """Write sweep rows with full float round-trip precision."""
    write_csv(path, CSV_HEADER,
              [(r.k, r.sup_nabla_f_L2, r.sup_nabla_f_H1, r.sup_eta_gap_H1,
                r.sup_etadot_gap_H1, r.energy_drift, r.converged)
               for r in rows])


def emit_plot(points, path, title="decay", slope=None, quality=None):
    """Hand-rolled log-log SVG of (k, value) points with a fitted line.

    Dependency-free on purpose: the output is a static report artifact,
    so a couple of polylines and text nodes are all that is needed.
    Nonpositive values cannot be placed on log axes and are dropped.
    """
    pts = [(float(k), float(v)) for k, v in points if v > 0.0 and k > 0.0]
    width, height = 480.0, 360.0
    mleft, mright, mtop, mbot = 60.0, 20.0, 40.0, 50.0

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" '
             'width="%g" height="%g" viewBox="0 0 %g %g">'
             % (width, height, width, height),
             '<rect width="%g" height="%g" fill="white"/>' % (width, height),
             '<text x="%g" y="24" font-size="15" font-family="sans-serif">%s</text>'
             % (mleft, title)]

    if len(pts) >= 2:
        xs = [math.log10(k) for k, _ in pts]
        ys = [math.log10(v) for _, v in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 - x0 < 1e-12:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 - y0 < 1e-12:
            y0, y1 = y0 - 0.5, y1 + 0.5

        def sx(x):
            return mleft + (x - x0) / (x1 - x0) * (width - mleft - mright)

        def sy(y):
            return height - mbot - (y - y0) / (y1 - y0) * (height - mtop - mbot)

        # a tick at every integer decade on each axis
        for d in range(math.ceil(x0 - 1e-9), math.floor(x1 + 1e-9) + 1):
            parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" '
                         'stroke="#ddd"/>' % (sx(d), mtop, sx(d),
                                              height - mbot))
            parts.append('<text x="%g" y="%g" font-size="11" '
                         'font-family="sans-serif" text-anchor="middle">'
                         '1e%d</text>' % (sx(d), height - mbot + 16, d))
        for d in range(math.ceil(y0 - 1e-9), math.floor(y1 + 1e-9) + 1):
            parts.append('<line x1="%g" y1="%g" x2="%g" y2="%g" '
                         'stroke="#ddd"/>' % (mleft, sy(d),
                                              width - mright, sy(d)))
            parts.append('<text x="%g" y="%g" font-size="11" '
                         'font-family="sans-serif" text-anchor="end">'
                         '1e%d</text>' % (mleft - 6, sy(d) + 4, d))

        poly = " ".join("%g,%g" % (sx(x), sy(y)) for x, y in zip(xs, ys))
        parts.append('<polyline points="%s" fill="none" stroke="#1f77b4" '
                     'stroke-width="2"/>' % poly)
        for x, y in zip(xs, ys):
            parts.append('<circle cx="%g" cy="%g" r="3.5" fill="#1f77b4"/>'
                         % (sx(x), sy(y)))

        if slope is not None:
            # anchor the reference decay line at the first point
            yf = [ys[0] - slope * (x - xs[0]) for x in xs]
            fit = " ".join("%g,%g" % (sx(x), sy(y)) for x, y in zip(xs, yf))
            parts.append('<polyline points="%s" fill="none" stroke="#d62728" '
                         'stroke-dasharray="6,4" stroke-width="1.5"/>' % fit)
            label = "slope %.2f" % slope
            if quality is not None:
                label += " (R2 %.3f)" % quality
            parts.append('<text x="%g" y="%g" font-size="13" fill="#d62728" '
                         'font-family="sans-serif" text-anchor="end">%s</text>'
                         % (width - mright - 4, mtop + 16, label))

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
