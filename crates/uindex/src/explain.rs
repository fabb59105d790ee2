//! EXPLAIN ANALYZE: translated-plan description plus executed trace.
//!
//! [`explain`] runs the query for real (ANALYZE semantics — there is no
//! plan-only mode, because translation is cheap and the interesting numbers
//! are the executed costs) and packages the plan the translator produced
//! and the executed [`QueryTrace`] — the query's [`crate::ScanStats`], the
//! registry-derived breakdowns and the per-phase span tree — into an
//! [`ExplainReport`] renderable as aligned text or JSON. The output
//! contract is documented in DESIGN.md §9.

use std::fmt::Write as _;

use crate::db::Database;
use crate::query::{OidSel, Query, ValuePred};
use crate::scan::{QueryTrace, Row, RowSink, ScanAlgorithm};
use crate::Result;

/// Plan row for one path position.
#[derive(Debug, Clone)]
pub struct PositionPlan {
    /// Name of the class anchoring the position.
    pub class: String,
    /// Number of allowed class-code ranges after translation.
    pub class_ranges: usize,
    /// Rendered OID selector (`any`, `=#n`, `in{k}`).
    pub oids: String,
    /// Whether an entry must include the position to match.
    pub required: bool,
}

/// Everything EXPLAIN ANALYZE reports for one query.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Index name from the spec.
    pub index: String,
    /// Scan algorithm the query ran with.
    pub algorithm: &'static str,
    /// Rendered value predicate.
    pub value: String,
    /// Number of value byte ranges after translation.
    pub value_ranges: usize,
    /// `distinct_through` position, if the query deduplicates.
    pub distinct_upto: Option<usize>,
    /// Per-position plan rows.
    pub positions: Vec<PositionPlan>,
    /// Number of hits the execution produced.
    pub hits: usize,
    /// Executed trace: scan cost counters, registry-derived breakdowns and
    /// the span tree.
    pub trace: QueryTrace,
    /// Whether the query was answered by the degraded object-store scan
    /// instead of the (quarantined) index. The trace counters are all
    /// zero in that case — no index pages were touched.
    pub degraded: bool,
}

pub(crate) fn algorithm_name(a: ScanAlgorithm) -> &'static str {
    match a {
        ScanAlgorithm::Parallel => "parallel",
        ScanAlgorithm::Forward => "forward",
    }
}

fn render_value_pred(v: &ValuePred) -> String {
    match v {
        ValuePred::Any => "any".to_string(),
        ValuePred::Eq(v) => format!("= {v:?}"),
        ValuePred::In(vs) => format!("in ({} values)", vs.len()),
        ValuePred::Range {
            lo,
            hi,
            hi_inclusive,
        } => {
            let lo = lo.as_ref().map_or("..".to_string(), |v| format!("{v:?}"));
            let hi = hi.as_ref().map_or("..".to_string(), |v| format!("{v:?}"));
            format!("[{lo}, {hi}{}", if *hi_inclusive { "]" } else { ")" })
        }
    }
}

fn render_oid_sel(o: &OidSel) -> String {
    match o {
        OidSel::Any => "any".to_string(),
        OidSel::Is(oid) => format!("=#{}", oid.0),
        OidSel::In(set) => format!("in{{{}}}", set.len()),
    }
}

/// A sink that only counts its rows: the report needs no hit.
struct RowCount(usize);

impl RowSink for RowCount {
    fn row(&mut self, _: &Row<'_>) -> Result<()> {
        self.0 += 1;
        Ok(())
    }

    fn restart(&mut self) {
        self.0 = 0;
    }
}

/// Execute `q` on `db` and build the report.
pub(crate) fn explain<P: pagestore::PageStore>(
    db: &Database<P>,
    q: &Query,
) -> Result<ExplainReport> {
    let planner = db.planner();
    let matcher = planner.matcher(q)?;
    let spec = planner.spec(q.index)?;
    let index_name = spec.name.clone();
    let mut positions = Vec::with_capacity(spec.positions.len());
    for (i, step) in spec.positions.iter().enumerate() {
        let pc = &matcher.positions[i];
        positions.push(PositionPlan {
            class: db.schema().class_name(step.class).to_string(),
            class_ranges: pc.class_ranges.len(),
            oids: render_oid_sel(&pc.oids),
            required: pc.required,
        });
    }
    let value = render_value_pred(&q.value);
    let value_ranges = matcher.value_ranges.len();
    let mut hits = RowCount(0);
    let (trace, degraded) = db.query_traced_guarded(q, &mut hits)?;
    Ok(ExplainReport {
        index: index_name,
        algorithm: algorithm_name(q.algorithm),
        value,
        value_ranges,
        distinct_upto: q.distinct_upto,
        positions,
        hits: hits.0,
        trace,
        degraded,
    })
}

fn render_span(out: &mut String, span: &telemetry::SpanNode, indent: usize) {
    let _ = writeln!(
        out,
        "{:indent$}{} {:.3}ms",
        "",
        span.name,
        span.nanos as f64 / 1e6,
        indent = indent
    );
    for child in &span.children {
        render_span(out, child, indent + 2);
    }
}

impl ExplainReport {
    /// Human-readable report (the CLI's default rendering).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Plan");
        let _ = writeln!(s, "  index:     {} ({})", self.index, self.algorithm);
        let _ = writeln!(
            s,
            "  value:     {}  ({} range{})",
            self.value,
            self.value_ranges,
            if self.value_ranges == 1 { "" } else { "s" }
        );
        if let Some(pos) = self.distinct_upto {
            let _ = writeln!(s, "  distinct:  through position {pos}");
        }
        for (i, p) in self.positions.iter().enumerate() {
            let _ = writeln!(
                s,
                "  pos {i}:     {} ({} class range{}, oids {}{})",
                p.class,
                p.class_ranges,
                if p.class_ranges == 1 { "" } else { "s" },
                p.oids,
                if p.required { ", required" } else { "" }
            );
        }
        let t = &self.trace;
        let st = &t.stats;
        let _ = writeln!(s, "Execution");
        if self.degraded {
            let _ = writeln!(
                s,
                "  degraded:         index quarantined; answered by object-store scan"
            );
        }
        let _ = writeln!(s, "  hits:             {}", self.hits);
        let _ = writeln!(
            s,
            "  entries:          {} examined, {} matched",
            st.entries_examined, st.matches
        );
        let _ = writeln!(
            s,
            "  pages:            {} read, {} visits ({} pool hits, {} misses)",
            st.pages_read, st.node_visits, t.pool_hits, t.pool_misses
        );
        let _ = writeln!(
            s,
            "  skips:            {} issued ({} partial keys expanded)",
            st.seeks, t.partial_keys_expanded
        );
        let _ = writeln!(
            s,
            "  reseeks:          {} leaf, {} lca, {} full",
            t.reseeks_leaf, t.reseeks_lca, t.reseeks_full
        );
        let _ = writeln!(
            s,
            "  descents:         {} ({} nodes fetched)",
            st.descents, st.reseek_depth_total
        );
        if let Some(span) = &t.span {
            let _ = writeln!(s, "Spans");
            render_span(&mut s, span, 2);
        }
        s
    }

    /// JSON report: `{"plan": ..., "trace": ..., "spans": ...}`.
    pub fn to_json(&self) -> String {
        use telemetry::json::escape;
        let mut s = String::new();
        s.push_str("{\n  \"plan\": {");
        let _ = write!(
            s,
            "\"index\": \"{}\", \"algorithm\": \"{}\", \"value\": \"{}\", \
             \"value_ranges\": {}, ",
            escape(&self.index),
            self.algorithm,
            escape(&self.value),
            self.value_ranges
        );
        match self.distinct_upto {
            Some(p) => {
                let _ = write!(s, "\"distinct_upto\": {p}, ");
            }
            None => s.push_str("\"distinct_upto\": null, "),
        }
        s.push_str("\"positions\": [");
        for (i, p) in self.positions.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"class\": \"{}\", \"class_ranges\": {}, \"oids\": \"{}\", \
                 \"required\": {}}}",
                escape(&p.class),
                p.class_ranges,
                escape(&p.oids),
                p.required
            );
        }
        s.push_str("]},\n");
        let t = &self.trace;
        let st = &t.stats;
        let _ = write!(
            s,
            "  \"trace\": {{\"hits\": {}, \"entries_examined\": {}, \"matches\": {}, \
             \"pages_read\": {}, \"node_visits\": {}, \"skips\": {}, \
             \"partial_keys_expanded\": {}, \"descents\": {}, \
             \"reseek_depth_total\": {}, \"reseeks_leaf\": {}, \"reseeks_lca\": {}, \
             \"reseeks_full\": {}, \"pool_hits\": {}, \"pool_misses\": {}, \
             \"degraded\": {degraded}}}",
            self.hits,
            st.entries_examined,
            st.matches,
            st.pages_read,
            st.node_visits,
            st.seeks,
            t.partial_keys_expanded,
            st.descents,
            st.reseek_depth_total,
            t.reseeks_leaf,
            t.reseeks_lca,
            t.reseeks_full,
            t.pool_hits,
            t.pool_misses,
            degraded = self.degraded
        );
        match &t.span {
            Some(span) => {
                let _ = write!(s, ",\n  \"spans\": {}", span.to_json());
            }
            None => s.push_str(",\n  \"spans\": null"),
        }
        s.push_str("\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use objstore::Value;
    use schema::{AttrType, Schema};

    use crate::{ClassSel, Database, IndexSpec, Query, ValuePred};

    fn small_db() -> (Database, crate::IndexId, schema::ClassId) {
        let mut s = Schema::new();
        let vehicle = s.add_class("Vehicle").unwrap();
        s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
        let auto = s.add_subclass("Automobile", vehicle).unwrap();
        let mut db = Database::in_memory(s).unwrap();
        let idx = db
            .define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
            .unwrap();
        for (class, color) in [(vehicle, "Red"), (auto, "Red"), (auto, "Blue")] {
            let o = db.create_object(class).unwrap();
            db.set_attr(o, "Color", Value::Str(color.into())).unwrap();
        }
        (db, idx, auto)
    }

    #[test]
    fn report_matches_direct_query() {
        let (db, idx, auto) = small_db();
        let q = Query::on(idx)
            .value(ValuePred::eq(Value::Str("Red".into())))
            .class_at(0, ClassSel::SubTree(auto));
        let report = db.explain_query(&q).unwrap();
        assert_eq!(report.hits, 1);
        assert_eq!(report.index, "color");
        assert_eq!(report.algorithm, "parallel");
        // A re-run through the stats path reports the same costs.
        let (hits, stats) = db.query_with_stats(&q).unwrap();
        assert_eq!(hits.len(), report.hits);
        assert_eq!(stats, report.trace.stats);
    }

    #[test]
    fn text_and_json_render() {
        let (db, idx, _) = small_db();
        let q = Query::on(idx).value(ValuePred::eq(Value::Str("Red".into())));
        let report = db.explain_query(&q).unwrap();
        let text = report.render_text();
        assert!(text.contains("Plan"), "text: {text}");
        assert!(text.contains("Execution"), "text: {text}");
        assert!(text.contains("Spans"), "span tree rendered: {text}");
        let parsed = telemetry::json::parse(&report.to_json()).expect("valid JSON");
        let plan = parsed.get("plan").expect("plan key");
        assert_eq!(plan.get("index").and_then(|v| v.as_str()), Some("color"));
        let trace = parsed.get("trace").expect("trace key");
        assert_eq!(
            trace.get("hits").and_then(|v| v.as_u64()),
            Some(report.hits as u64)
        );
        let spans = parsed.get("spans").expect("spans key");
        assert_eq!(spans.get("name").and_then(|v| v.as_str()), Some("query"));
    }

    #[test]
    fn explain_uql_strips_prefix() {
        let (db, _, _) = small_db();
        for input in [
            "color: Color = 'Red'",
            "explain analyze color: Color = 'Red'",
            "EXPLAIN ANALYZE color: Color = 'Red'",
            "  Explain   color: Color = 'Red'",
        ] {
            let report = db.explain_uql(input).unwrap();
            assert_eq!(report.hits, 2, "input {input:?}");
        }
        // Byte 7 or 15 inside a multibyte char: a parse error, not a panic.
        for input in ["éééééééé", "explainé", "explain analyzé", "ééé explain"] {
            assert!(db.explain_uql(input).is_err(), "input {input:?}");
        }
        let report = db.explain_uql("explain color: Color = 'Rød'").unwrap();
        assert_eq!(report.hits, 0);
    }
}
