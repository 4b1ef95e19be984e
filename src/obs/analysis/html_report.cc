#include "obs/analysis/html_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json_util.h"
#include "obs/timeseries.h"

namespace dcrd {

namespace {

void JsonDouble(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

// CDF as [value_us, cumulative_fraction] steps from the histogram's
// non-empty buckets (bucket upper bound, clamped into [min, max]).
void JsonCdf(std::ostream& os, const LogLinearHistogram& h) {
  os << "[";
  if (h.count() > 0) {
    os << "[" << h.min() << ",0]";
    std::uint64_t cumulative = 0;
    for (int b = 0; b < LogLinearHistogram::kBucketCount; ++b) {
      if (h.CountAt(b) == 0) continue;
      cumulative += h.CountAt(b);
      std::uint64_t x = LogLinearHistogram::BucketHi(b);
      if (x > h.max()) x = h.max();
      if (x < h.min()) x = h.min();
      os << ",[" << x << ",";
      JsonDouble(os, static_cast<double>(cumulative) /
                         static_cast<double>(h.count()));
      os << "]";
    }
  }
  os << "]";
}

void JsonData(std::ostream& os, const DecompositionResult& result,
              const AuditReport* audit, std::string_view title) {
  const LogLinearHistogram& total = result.total_histogram;
  os << "{\"title\":";
  WriteJsonEscaped(os, title);
  os << ",\"components\":[";
  for (int i = 0; i < kDelayComponentCount; ++i) {
    if (i > 0) os << ",";
    WriteJsonEscaped(os, DelayComponentName(i));
  }
  os << "],\"summary\":{\"deliveries\":" << total.count()
     << ",\"mean_us\":";
  JsonDouble(os, total.count() > 0 ? static_cast<double>(total.sum()) /
                                         static_cast<double>(total.count())
                                   : 0.0);
  os << ",\"p50_us\":" << total.ValueAtQuantile(0.5)
     << ",\"p99_us\":" << total.ValueAtQuantile(0.99)
     << ",\"incomplete_chains\":" << result.incomplete_chains
     << ",\"skipped_no_publish\":" << result.skipped_no_publish
     << ",\"duplicate_deliveries\":" << result.duplicate_deliveries
     << ",\"timer_mismatches\":" << result.timer_accounting_mismatches
     << ",\"component_totals\":[";
  std::int64_t component_totals[kDelayComponentCount] = {};
  for (const DeliveryDecomposition& d : result.deliveries) {
    for (int i = 0; i < kDelayComponentCount; ++i) {
      component_totals[i] += DelayComponentValue(d.components, i);
    }
  }
  for (int i = 0; i < kDelayComponentCount; ++i) {
    if (i > 0) os << ",";
    os << component_totals[i];
  }
  os << "]},\"epochs\":[";
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const EpochDelayStats& epoch = result.epochs[e];
    if (e > 0) os << ",";
    os << "{\"t_s\":";
    JsonDouble(os, static_cast<double>(epoch.start_t_us) / 1e6);
    os << ",\"n\":" << epoch.deliveries << ",\"means_us\":[";
    for (int i = 0; i < kDelayComponentCount; ++i) {
      if (i > 0) os << ",";
      JsonDouble(os, epoch.deliveries > 0
                         ? static_cast<double>(
                               epoch.component_sums_us[static_cast<
                                   std::size_t>(i)]) /
                               static_cast<double>(epoch.deliveries)
                         : 0.0);
    }
    os << "]}";
  }
  os << "],\"cdfs\":[";
  for (int i = 0; i < kDelayComponentCount; ++i) {
    if (i > 0) os << ",";
    JsonCdf(os, result.component_histograms[static_cast<std::size_t>(i)]);
  }
  os << "],\"total_cdf\":";
  JsonCdf(os, total);
  os << ",\"links\":[";
  for (std::size_t i = 0; i < result.links.size(); ++i) {
    const LinkDelayStats& l = result.links[i];
    if (i > 0) os << ",";
    os << "{\"link\":" << l.link << ",\"hops\":" << l.hops
       << ",\"wire_us\":" << l.wire_us << ",\"queue_us\":" << l.queueing_us
       << ",\"baseline_us\":" << l.baseline_us << "}";
  }
  os << "],\"brokers\":[";
  for (std::size_t i = 0; i < result.brokers.size(); ++i) {
    const BrokerDelayStats& b = result.brokers[i];
    if (i > 0) os << ",";
    os << "{\"node\":" << b.node << ",\"segments\":" << b.wait_segments
       << ",\"wait_us\":" << b.wait_us << "}";
  }
  os << "],\"audit\":";
  if (audit == nullptr) {
    os << "null";
  } else {
    // Bound the embedded table; a long sweep can have tens of thousands of
    // cells. Flagged cells are never dropped.
    constexpr std::size_t kMaxCells = 2000;
    os << "{\"observed\":" << audit->observed
       << ",\"matched\":" << audit->matched
       << ",\"unmatched\":" << audit->unmatched
       << ",\"flagged\":" << audit->flagged_cells
       << ",\"populated\":" << audit->populated_cells
       << ",\"cells_total\":" << audit->cells.size()
       << ",\"recombine_failures\":" << audit->recombine_failures
       << ",\"max_recombine_error_us\":";
    JsonDouble(os, audit->max_recombine_error_us);
    os << ",\"cells\":[";
    std::size_t emitted = 0;
    bool first = true;
    for (const AuditCell& cell : audit->cells) {
      if (!cell.flagged && emitted >= kMaxCells) continue;
      if (!first) os << ",";
      first = false;
      ++emitted;
      os << "{\"t_s\":";
      JsonDouble(os, static_cast<double>(cell.epoch_t_us) / 1e6);
      os << ",\"topic\":" << cell.topic << ",\"sub\":" << cell.sub
         << ",\"n\":" << cell.n << ",\"d_us\":";
      JsonDouble(os, cell.expected_d_us);
      os << ",\"r\":";
      JsonDouble(os, cell.expected_r);
      os << ",\"mean_us\":";
      JsonDouble(os, cell.mean_us);
      os << ",\"sd_us\":";
      JsonDouble(os, cell.stddev_us);
      os << ",\"err_us\":";
      JsonDouble(os, cell.error_us);
      os << ",\"flagged\":" << (cell.flagged ? "true" : "false") << "}";
    }
    os << "]}";
  }
  os << "}";
}

// Inline CSS: palette roles as custom properties, light defaults with dark
// steps under the OS media query and a data-theme override (toggle wins
// both ways). Series hexes are the validated five-slot categorical order.
constexpr std::string_view kCss = R"CSS(
  :root { color-scheme: light; }
  .viz-root {
    --surface-1: #fcfcfb; --page: #f9f9f7;
    --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
    --grid: #e1e0d9; --baseline: #c3c2b7;
    --border: rgba(11,11,11,0.10);
    --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
    --series-4: #eda100; --series-5: #e87ba4; --series-total: #0b0b0b;
    --critical: #d03b3b;
    font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
    color: var(--ink-1); background: var(--page);
    margin: 0 auto; max-width: 1080px; padding: 24px 20px 48px;
  }
  @media (prefers-color-scheme: dark) {
    :root:where(:not([data-theme="light"])) .viz-root {
      color-scheme: dark;
      --surface-1: #1a1a19; --page: #0d0d0d;
      --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
      --grid: #2c2c2a; --baseline: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
      --series-4: #c98500; --series-5: #d55181; --series-total: #ffffff;
    }
  }
  :root[data-theme="dark"] .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-total: #ffffff;
  }
  .viz-root h1 { font-size: 20px; margin: 0 0 4px; }
  .viz-root h2 { font-size: 15px; margin: 0 0 2px; }
  .viz-root .subtitle { color: var(--ink-2); font-size: 13px; margin-bottom: 20px; }
  .viz-root .note { color: var(--ink-2); font-size: 12px; margin: 2px 0 10px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
  .tile { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 10px 14px; min-width: 130px; }
  .tile .v { font-size: 22px; font-weight: 600; }
  .tile .k { font-size: 12px; color: var(--ink-2); }
  .card { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 16px; margin-bottom: 20px; }
  .legend { display: flex; flex-wrap: wrap; gap: 14px; margin-top: 8px;
            font-size: 12px; color: var(--ink-2); }
  .legend .sw { display: inline-block; width: 10px; height: 10px;
                border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
  svg { display: block; width: 100%; height: auto; }
  svg text { font-family: inherit; font-size: 11px; fill: var(--ink-muted);
             font-variant-numeric: tabular-nums; }
  table { border-collapse: collapse; width: 100%; font-size: 12px;
          font-variant-numeric: tabular-nums; }
  th { text-align: right; color: var(--ink-2); font-weight: 600;
       padding: 5px 8px; border-bottom: 1px solid var(--baseline); }
  td { text-align: right; padding: 4px 8px; border-bottom: 1px solid var(--grid); }
  th:first-child, td:first-child { text-align: left; }
  .flag { color: var(--critical); font-weight: 600; }
  details summary { cursor: pointer; font-size: 13px; color: var(--ink-2);
                    margin-top: 10px; }
  #tooltip { position: fixed; pointer-events: none; display: none;
             background: var(--surface-1); border: 1px solid var(--border);
             border-radius: 6px; padding: 8px 10px; font-size: 12px;
             box-shadow: 0 2px 10px rgba(0,0,0,0.15); z-index: 10;
             font-variant-numeric: tabular-nums; }
  #tooltip .t { color: var(--ink-2); margin-bottom: 4px; }
  #tooltip .row { display: flex; justify-content: space-between; gap: 14px; }
)CSS";

// Inline JS: pure drawing over the embedded DATA blob. SVG built as strings;
// crosshair + tooltip via one overlay per chart.
constexpr std::string_view kJs = R"JS(
  const C = DATA.components;
  const COLORS = ['var(--series-1)','var(--series-2)','var(--series-3)',
                  'var(--series-4)','var(--series-5)'];
  const NICE = {propagation:'Propagation', queueing:'Queueing',
                retransmit_wait:'Retransmit wait', reroute_detour:'Reroute detour',
                residual:'Residual'};
  const fmtMs = us => us == null ? '–' : (us/1000).toLocaleString('en-US',
      {maximumFractionDigits: us < 10000 ? 2 : 1}) + ' ms';
  const fmtN = n => n.toLocaleString('en-US');
  const el = id => document.getElementById(id);
  const tooltip = el('tooltip');
  function showTip(evt, html) {
    tooltip.innerHTML = html; tooltip.style.display = 'block';
    const pad = 14;
    let x = evt.clientX + pad, y = evt.clientY + pad;
    const r = tooltip.getBoundingClientRect();
    if (x + r.width > innerWidth - 8) x = evt.clientX - r.width - pad;
    if (y + r.height > innerHeight - 8) y = evt.clientY - r.height - pad;
    tooltip.style.left = x + 'px'; tooltip.style.top = y + 'px';
  }
  function hideTip() { tooltip.style.display = 'none'; }
  function legend(id, names, colors) {
    el(id).innerHTML = names.map((n, i) =>
      `<span><span class="sw" style="background:${colors[i]}"></span>${n}</span>`
    ).join('');
  }
  function ticks(lo, hi, n) {
    const span = hi - lo || 1, step0 = span / Math.max(1, n);
    const mag = Math.pow(10, Math.floor(Math.log10(step0)));
    const step = [1,2,5,10].map(m => m*mag).find(s => span/s <= n) || 10*mag;
    const out = [];
    for (let v = Math.ceil(lo/step)*step; v <= hi + 1e-9; v += step) out.push(v);
    return out;
  }

  // ---- Stacked area: per-epoch mean delay per delivery, by component ----
  (function stackedArea() {
    const E = DATA.epochs;
    const W = 1040, H = 300, L = 56, R = 16, T = 12, B = 30;
    if (E.length === 0) { el('stackCard').style.display = 'none'; return; }
    const xs = E.map(e => e.t_s);
    const stackTop = E.map(e => e.means_us.reduce((a,b) => a+b, 0));
    const xLo = xs[0], xHi = xs[xs.length-1] > xs[0] ? xs[xs.length-1] : xs[0]+1;
    const yHi = Math.max(1, ...stackTop) * 1.08;
    const X = t => L + (t - xLo) / (xHi - xLo) * (W - L - R);
    const Y = v => T + (1 - v / yHi) * (H - T - B);
    let svg = '';
    for (const v of ticks(0, yHi, 5)) {
      svg += `<line x1="${L}" x2="${W-R}" y1="${Y(v)}" y2="${Y(v)}"
        stroke="var(--grid)" stroke-width="1"/>`;
      svg += `<text x="${L-6}" y="${Y(v)+4}" text-anchor="end">${fmtMs(v)}</text>`;
    }
    // Cumulative bands, bottom-up; each band stroked in surface color on its
    // top edge for the 2px fill gap.
    const cum = E.map(() => 0);
    for (let i = 0; i < C.length; i++) {
      const lower = cum.slice();
      for (let k = 0; k < E.length; k++) cum[k] += E[k].means_us[i];
      let d = '';
      for (let k = 0; k < E.length; k++)
        d += (k ? 'L' : 'M') + X(xs[k]).toFixed(1) + ' ' + Y(cum[k]).toFixed(1);
      let top = d;
      for (let k = E.length - 1; k >= 0; k--)
        d += 'L' + X(xs[k]).toFixed(1) + ' ' + Y(lower[k]).toFixed(1);
      svg += `<path d="${d}Z" fill="${COLORS[i]}"/>`;
      svg += `<path d="${top}" fill="none" stroke="var(--surface-1)" stroke-width="2"/>`;
    }
    for (const v of ticks(xLo, xHi, 8)) {
      svg += `<text x="${X(v)}" y="${H-B+16}" text-anchor="middle">${v}s</text>`;
    }
    svg += `<line x1="${L}" x2="${W-R}" y1="${Y(0)}" y2="${Y(0)}"
      stroke="var(--baseline)" stroke-width="1"/>`;
    svg += `<line id="stackCross" x1="0" x2="0" y1="${T}" y2="${H-B}"
      stroke="var(--ink-muted)" stroke-width="1" stroke-dasharray="3 3"
      visibility="hidden"/>`;
    svg += `<rect x="${L}" y="${T}" width="${W-L-R}" height="${H-T-B}"
      fill="transparent" id="stackHover"/>`;
    el('stack').innerHTML = svg;
    el('stack').setAttribute('viewBox', `0 0 ${W} ${H}`);
    legend('stackLegend', C.map(c => NICE[c] || c), COLORS);
    const hover = el('stackHover'), cross = el('stackCross');
    hover.addEventListener('mousemove', evt => {
      const box = el('stack').getBoundingClientRect();
      const mx = (evt.clientX - box.left) / box.width * W;
      const t = xLo + (mx - L) / (W - L - R) * (xHi - xLo);
      let k = 0;
      for (let i = 0; i < xs.length; i++) if (xs[i] <= t) k = i;
      cross.setAttribute('x1', X(xs[k])); cross.setAttribute('x2', X(xs[k]));
      cross.setAttribute('visibility', 'visible');
      const rows = C.map((c, i) =>
        `<div class="row"><span><span class="sw legendless"
           style="display:inline-block;width:8px;height:8px;border-radius:2px;
           background:${COLORS[i]};margin-right:5px"></span>${NICE[c]||c}</span>
         <span>${fmtMs(E[k].means_us[i])}</span></div>`).join('');
      showTip(evt, `<div class="t">epoch @ ${xs[k]}s · ${fmtN(E[k].n)} deliveries</div>
        ${rows}<div class="row" style="margin-top:4px"><span>Total mean</span>
        <span>${fmtMs(E[k].means_us.reduce((a,b)=>a+b,0))}</span></div>`);
    });
    hover.addEventListener('mouseleave', () => {
      hideTip(); cross.setAttribute('visibility', 'hidden');
    });
    // Table view of the same data.
    el('epochTable').innerHTML =
      '<tr><th>Epoch start</th><th>Deliveries</th>' +
      C.map(c => `<th>${NICE[c]||c}</th>`).join('') + '<th>Total mean</th></tr>' +
      E.map(e => `<tr><td>${e.t_s}s</td><td>${fmtN(e.n)}</td>` +
        e.means_us.map(v => `<td>${fmtMs(v)}</td>`).join('') +
        `<td>${fmtMs(e.means_us.reduce((a,b)=>a+b,0))}</td></tr>`).join('');
  })();

  // ---- Per-component CDFs (log-x step curves) ----
  (function cdfs() {
    const W = 1040, H = 300, L = 56, R = 16, T = 12, B = 34;
    const curves = DATA.cdfs.map((pts, i) =>
        ({name: NICE[C[i]] || C[i], color: COLORS[i], pts}))
      .concat([{name: 'Total', color: 'var(--series-total)',
                pts: DATA.total_cdf, dash: '5 4'}])
      .filter(c => c.pts.length > 0);
    if (curves.length === 0) { el('cdfCard').style.display = 'none'; return; }
    let xMax = 1;
    for (const c of curves) for (const p of c.pts) xMax = Math.max(xMax, p[0]);
    const lx = v => Math.log10(Math.max(1, v));
    const X = v => L + lx(v) / lx(xMax) * (W - L - R);
    const Y = f => T + (1 - f) * (H - T - B);
    let svg = '';
    for (const f of [0, 0.25, 0.5, 0.75, 1]) {
      svg += `<line x1="${L}" x2="${W-R}" y1="${Y(f)}" y2="${Y(f)}"
        stroke="var(--grid)" stroke-width="1"/>`;
      svg += `<text x="${L-6}" y="${Y(f)+4}" text-anchor="end">${(f*100)}%</text>`;
    }
    for (let d = 0; d <= lx(xMax); d++) {
      const v = Math.pow(10, d);
      svg += `<line x1="${X(v)}" x2="${X(v)}" y1="${T}" y2="${H-B}"
        stroke="var(--grid)" stroke-width="1"/>`;
      svg += `<text x="${X(v)}" y="${H-B+16}" text-anchor="middle">${
        v < 1000 ? v + 'µs' : v < 1e6 ? (v/1000) + 'ms' : (v/1e6) + 's'}</text>`;
    }
    for (const c of curves) {
      let d = '', lastY = null;
      for (const [x, f] of c.pts) {
        const px = X(x).toFixed(1), py = Y(f).toFixed(1);
        if (d === '') d = `M${px} ${py}`;
        else d += `L${px} ${lastY}L${px} ${py}`;  // step
        lastY = py;
      }
      svg += `<path d="${d}" fill="none" stroke="${c.color}" stroke-width="2"
        ${c.dash ? `stroke-dasharray="${c.dash}"` : ''}/>`;
    }
    svg += `<line x1="${L}" x2="${W-R}" y1="${Y(0)}" y2="${Y(0)}"
      stroke="var(--baseline)" stroke-width="1"/>`;
    svg += `<line id="cdfCross" x1="0" x2="0" y1="${T}" y2="${H-B}"
      stroke="var(--ink-muted)" stroke-width="1" stroke-dasharray="3 3"
      visibility="hidden"/>`;
    svg += `<rect x="${L}" y="${T}" width="${W-L-R}" height="${H-T-B}"
      fill="transparent" id="cdfHover"/>`;
    el('cdf').innerHTML = svg;
    el('cdf').setAttribute('viewBox', `0 0 ${W} ${H}`);
    legend('cdfLegend', curves.map(c => c.name),
           curves.map(c => c.color));
    const fracAt = (pts, x) => {
      let f = 0;
      for (const p of pts) { if (p[0] <= x) f = p[1]; else break; }
      return f;
    };
    const hover = el('cdfHover'), cross = el('cdfCross');
    hover.addEventListener('mousemove', evt => {
      const box = el('cdf').getBoundingClientRect();
      const mx = (evt.clientX - box.left) / box.width * W;
      const x = Math.pow(10, (mx - L) / (W - L - R) * lx(xMax));
      cross.setAttribute('x1', mx); cross.setAttribute('x2', mx);
      cross.setAttribute('visibility', 'visible');
      const rows = curves.map(c =>
        `<div class="row"><span><span style="display:inline-block;width:8px;
           height:8px;border-radius:2px;background:${c.color};margin-right:5px">
         </span>${c.name}</span><span>${(fracAt(c.pts, x)*100).toFixed(1)}%</span>
         </div>`).join('');
      showTip(evt, `<div class="t">delay ≤ ${fmtMs(x)}</div>${rows}`);
    });
    hover.addEventListener('mouseleave', () => {
      hideTip(); cross.setAttribute('visibility', 'hidden');
    });
  })();

  // ---- Summary tiles ----
  (function tiles() {
    const S = DATA.summary;
    const tiles = [
      ['Deliveries decomposed', fmtN(S.deliveries)],
      ['Mean delay', fmtMs(S.mean_us)],
      ['p50 / p99', fmtMs(S.p50_us) + ' / ' + fmtMs(S.p99_us)],
      ['Incomplete chains', fmtN(S.incomplete_chains)],
      ['Timer mismatches', fmtN(S.timer_mismatches)],
    ];
    if (DATA.audit) tiles.push(['Flagged audit cells',
        fmtN(DATA.audit.flagged) + ' / ' + fmtN(DATA.audit.populated)]);
    el('tiles').innerHTML = tiles.map(([k, v]) =>
      `<div class="tile"><div class="v">${v}</div><div class="k">${k}</div></div>`
    ).join('');
    if (S.skipped_no_publish > 0) {
      el('lossyNote').textContent = 'Warning: ' + fmtN(S.skipped_no_publish) +
        ' delivery(ies) had no publish record — the trace looks lossy and ' +
        'those delays are excluded.';
    }
  })();

  // ---- Audit table ----
  (function audit() {
    const A = DATA.audit;
    if (!A) { el('auditCard').style.display = 'none'; return; }
    el('auditSummary').textContent =
      `${fmtN(A.matched)} of ${fmtN(A.observed)} deliveries joined to ` +
      `${fmtN(A.cells_total)} model cells (${fmtN(A.unmatched)} unmatched); ` +
      `${fmtN(A.flagged)} of ${fmtN(A.populated)} populated cells flagged; ` +
      `max Eq.3 recombination error ${A.max_recombine_error_us} µs` +
      (A.recombine_failures > 0
        ? ` — ${fmtN(A.recombine_failures)} recombination FAILURES` : '') +
      (A.cells.length < A.cells_total
        ? ` (table truncated to ${fmtN(A.cells.length)} rows;` +
          ' all flagged rows kept)' : '');
    el('auditTable').innerHTML =
      '<tr><th>Epoch</th><th>Topic</th><th>Sub</th><th>n</th>' +
      '<th>Expected d</th><th>Observed mean</th><th>Stddev</th>' +
      '<th>Error</th><th>r</th><th>Status</th></tr>' +
      A.cells.map(c => `<tr><td>${c.t_s}s</td><td>${c.topic}</td>
        <td>${c.sub}</td><td>${fmtN(c.n)}</td><td>${fmtMs(c.d_us)}</td>
        <td>${c.n ? fmtMs(c.mean_us) : '–'}</td>
        <td>${c.n > 1 ? fmtMs(c.sd_us) : '–'}</td>
        <td>${c.n ? fmtMs(c.err_us) : '–'}</td>
        <td>${c.r == null ? '–' : c.r.toFixed(4)}</td>
        <td>${c.flagged ? '<span class="flag">⚠ flagged</span>' : 'ok'}</td>
        </tr>`).join('');
  })();

  // ---- Link / broker tables ----
  (function hotspots() {
    el('linkTable').innerHTML =
      '<tr><th>Link</th><th>Causal hops</th><th>Wire time</th>' +
      '<th>Queueing</th><th>Baseline</th></tr>' +
      DATA.links.map(l => `<tr><td>link ${l.link}</td><td>${fmtN(l.hops)}</td>
        <td>${fmtMs(l.wire_us)}</td><td>${fmtMs(l.queue_us)}</td>
        <td>${l.baseline_us < 0 ? '–' : fmtMs(l.baseline_us)}</td></tr>`).join('');
    el('brokerTable').innerHTML =
      '<tr><th>Broker</th><th>Wait segments</th><th>Timer wait</th></tr>' +
      DATA.brokers.map(b => `<tr><td>broker ${b.node}</td>
        <td>${fmtN(b.segments)}</td><td>${fmtMs(b.wait_us)}</td></tr>`).join('');
    if (DATA.links.length === 0 && DATA.brokers.length === 0) {
      el('hotspotCard').style.display = 'none';
    }
  })();
)JS";

// Continuous-telemetry panel, rendered as static inline SVG (no JS): the
// windowed deadline-SLO chart — delivery ratio and violation rate on a
// shared [0, 1+] axis, windowed p99 delay on its own — plus a strided
// window table. Server-side rendering keeps the panel byte-deterministic
// and the report self-contained even with scripts disabled.
void WriteTimeSeriesPanel(std::ostream& os, const TimeSeriesStore& series) {
  const std::vector<SloWindow> slo = ComputeSloSeries(series);
  os << "<section class=\"card\" id=\"timeseriesCard\">\n"
     << "<h2>Continuous telemetry (deadline SLO)</h2>\n"
     << "<div class=\"note\">Per-window delivery ratio and deadline-"
        "violation rate sampled every "
     << series.interval_us / 1000 << " ms of sim time; " << slo.size()
     << " windows.</div>\n";
  if (slo.empty()) {
    os << "<div class=\"note\">No SLO counters in this time series.</div>\n"
       << "</section>\n";
    return;
  }
  const double t0 = static_cast<double>(slo.front().t_us);
  const double t1 = static_cast<double>(slo.back().t_us);
  const double span = t1 > t0 ? t1 - t0 : 1.0;
  constexpr double kW = 880.0, kH = 160.0, kPad = 8.0;
  const auto x_of = [&](std::int64_t t) {
    return kPad + (static_cast<double>(t) - t0) / span * (kW - 2 * kPad);
  };
  const auto polyline = [&](const char* var, auto value_of, double vmax) {
    os << "<polyline fill=\"none\" stroke=\"var(" << var
       << ")\" stroke-width=\"1.5\" points=\"";
    char pt[48];
    for (const SloWindow& w : slo) {
      const double v = std::min(value_of(w) / vmax, 1.0);
      std::snprintf(pt, sizeof(pt), "%.1f,%.1f ", x_of(w.t_us),
                    kH - kPad - v * (kH - 2 * kPad));
      os << pt;
    }
    os << "\"/>\n";
  };
  // Ratio chart: shared axis topping out just above 1 so a perfect run
  // draws a visible line instead of hugging the frame.
  os << "<svg viewBox=\"0 0 " << kW << " " << kH
     << "\" role=\"img\" aria-label=\"Delivery ratio and violation rate per "
        "window\" style=\"width:100%;height:auto\">\n"
     << "<rect x=\"0\" y=\"0\" width=\"" << kW << "\" height=\"" << kH
     << "\" fill=\"none\" stroke=\"var(--grid)\"/>\n";
  polyline("--series-1",
           [](const SloWindow& w) { return w.delivery_ratio; }, 1.05);
  polyline("--series-2",
           [](const SloWindow& w) { return w.violation_rate; }, 1.05);
  os << "</svg>\n"
     << "<div class=\"legend\"><span><span class=\"sw\" "
        "style=\"background:var(--series-1)\"></span>delivery ratio</span> "
        "<span><span class=\"sw\" "
        "style=\"background:var(--series-2)\"></span>violation rate</span>"
        "</div>\n";
  std::uint64_t p99_max = 1;
  for (const SloWindow& w : slo) p99_max = std::max(p99_max, w.delay_p99_us);
  os << "<svg viewBox=\"0 0 " << kW << " " << kH
     << "\" role=\"img\" aria-label=\"Windowed p99 delivery delay\" "
        "style=\"width:100%;height:auto\">\n"
     << "<rect x=\"0\" y=\"0\" width=\"" << kW << "\" height=\"" << kH
     << "\" fill=\"none\" stroke=\"var(--grid)\"/>\n";
  polyline("--series-3",
           [](const SloWindow& w) {
             return static_cast<double>(w.delay_p99_us);
           },
           static_cast<double>(p99_max));
  os << "</svg>\n"
     << "<div class=\"legend\"><span><span class=\"sw\" "
        "style=\"background:var(--series-3)\"></span>windowed p99 delay "
        "(max "
     << p99_max << "us)</span></div>\n";
  // Strided table: at most ~20 rows so paper-scale runs stay skimmable.
  const std::size_t stride = slo.size() > 20 ? (slo.size() + 19) / 20 : 1;
  os << "<details><summary>Window table (every " << stride
     << ")</summary><table>"
     << "<tr><th>t (ms)</th><th>published</th><th>delivered</th>"
        "<th>on time</th><th>ratio</th><th>violation</th>"
        "<th>p50 (us)</th><th>p99 (us)</th></tr>";
  char cells[192];
  for (std::size_t i = 0; i < slo.size(); i += stride) {
    const SloWindow& w = slo[i];
    std::snprintf(cells, sizeof(cells),
                  "<tr><td>%lld</td><td>%llu</td><td>%llu</td>"
                  "<td>%llu</td><td>%.4f</td><td>%.4f</td>"
                  "<td>%llu</td><td>%llu</td></tr>",
                  static_cast<long long>(w.t_us / 1000),
                  static_cast<unsigned long long>(w.published),
                  static_cast<unsigned long long>(w.delivered),
                  static_cast<unsigned long long>(w.on_time),
                  w.delivery_ratio, w.violation_rate,
                  static_cast<unsigned long long>(w.delay_p50_us),
                  static_cast<unsigned long long>(w.delay_p99_us));
    os << cells;
  }
  os << "</table></details>\n</section>\n";
}

}  // namespace

void WriteHtmlReport(std::ostream& os, const DecompositionResult& result,
                     const AuditReport* audit, std::string_view title,
                     const TimeSeriesStore* series) {
  os << "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
     << "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n"
     << "<title>";
  for (const char c : title) {
    if (c == '<' || c == '>' || c == '&') continue;
    os << c;
  }
  os << "</title>\n<style>" << kCss << "</style>\n</head>\n<body>\n"
     << "<div class=\"viz-root\">\n"
     << "<header><h1>Delay provenance report</h1>\n"
     << "<div class=\"subtitle\" id=\"subtitle\"></div></header>\n"
     << "<div class=\"note\" id=\"lossyNote\"></div>\n"
     << "<section class=\"tiles\" id=\"tiles\"></section>\n"
     << "<section class=\"card\" id=\"stackCard\">\n"
     << "<h2>Delay decomposition by epoch</h2>\n"
     << "<div class=\"note\">Mean delay per delivered packet, stacked by "
        "component, per monitoring epoch.</div>\n"
     << "<svg id=\"stack\" role=\"img\" aria-label=\"Stacked area chart of "
        "mean delay components per epoch\"></svg>\n"
     << "<div class=\"legend\" id=\"stackLegend\"></div>\n"
     << "<details><summary>Data table</summary>"
        "<table id=\"epochTable\"></table></details>\n"
     << "</section>\n"
     << "<section class=\"card\" id=\"cdfCard\">\n"
     << "<h2>Per-component delay CDFs</h2>\n"
     << "<div class=\"note\">Distribution of each component across all "
        "decomposed deliveries (log delay axis).</div>\n"
     << "<svg id=\"cdf\" role=\"img\" aria-label=\"CDF curves per delay "
        "component\"></svg>\n"
     << "<div class=\"legend\" id=\"cdfLegend\"></div>\n"
     << "</section>\n"
     << "<section class=\"card\" id=\"auditCard\">\n"
     << "<h2>Model vs observed (Theorem 1 audit)</h2>\n"
     << "<div class=\"note\" id=\"auditSummary\"></div>\n"
     << "<table id=\"auditTable\"></table>\n"
     << "</section>\n"
     << "<section class=\"card\" id=\"hotspotCard\">\n"
     << "<h2>Hotspots</h2>\n"
     << "<div class=\"note\">Where causal time was spent: wire time per "
        "link, timer waits per broker.</div>\n"
     << "<table id=\"linkTable\"></table>\n<br>\n"
     << "<table id=\"brokerTable\"></table>\n"
     << "</section>\n";
  if (series != nullptr) WriteTimeSeriesPanel(os, *series);
  os << "</div>\n<div id=\"tooltip\"></div>\n"
     << "<script>\nconst DATA = ";
  JsonData(os, result, audit, title);
  os << ";\n";
  os << "document.getElementById('subtitle').textContent = DATA.title;\n"
     << kJs << "</script>\n</body>\n</html>\n";
}

}  // namespace dcrd
