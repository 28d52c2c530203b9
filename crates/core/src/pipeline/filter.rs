//! Stage 3 — **Filter**: Method M's candidate set `C_M` (Fig. 3(b)) — run
//! only when the hits did not already fence the answer.
//!
//! The thinnest stage by design: GraphCache is a cache layered *over* an
//! existing filter-then-verify method, and this stage is exactly that
//! method's filter. It takes no cache locks and mutates no cache state, so
//! any number of concurrent queries can run it at once.
//!
//! It is also the one stage no cache hit makes cheaper — a walk over the
//! dataset index whose cost depends on the query and the dataset alone — so
//! it runs *after* probe and bound, and not at all on the bounded plan
//! ([`crate::pipeline::bound`]): there the candidate set is the hits' upper
//! bound `U`, which already is within the live graphs and covers every
//! answer, overlay graphs included.
//!
//! With a **dynamic dataset** the stage also reconciles the method's view
//! with the live dataset: graphs inserted since the method's index was
//! built (`overlay` — methods whose [`gc_method::Method::on_insert_graph`]
//! returns `false`) are added to `C_M` unconditionally (sound: they go
//! through exact verification), and tombstoned graphs are masked out
//! (sound: a removed graph can never be an answer). On a pristine dataset
//! with an empty overlay this is a no-op.

use crate::pipeline::PipelineCtx;
use gc_graph::BitSet;
use gc_method::{Dataset, Method};

/// Run Method M's filter for the query in `ctx`, storing `C_M`.
///
/// `overlay` holds dataset graphs the method's own filter index does not
/// cover (inserted after an immutable index was built); they are unioned
/// into `C_M` so no live graph can be silently missed. It must span the
/// dataset's universe (`overlay.universe() == dataset.len()`).
pub fn run(ctx: &mut PipelineCtx<'_>, method: &dyn Method, dataset: &Dataset, overlay: &BitSet) {
    let mut cm = method.filter(dataset, ctx.query, ctx.kind);
    if cm.universe() < dataset.len() {
        // Method index predates later inserts: widen to the live universe.
        cm.grow(dataset.len());
    }
    // In place: the runtime grows the overlay with the dataset, so the
    // universes agree and no per-query copy of the overlay is needed.
    cm.union_with(overlay);
    if dataset.has_tombstones() {
        cm.intersect_with(dataset.live_mask());
    }
    ctx.cm = cm;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_graph::{graph_from_parts, Label};
    use gc_method::{QueryKind, SiMethod};

    #[test]
    fn filter_fills_cm() {
        let g0 = graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap();
        let g1 = graph_from_parts(&[Label(2)], &[]).unwrap();
        let dataset = Dataset::new(vec![g0, g1]);
        let q = graph_from_parts(&[Label(0)], &[]).unwrap();
        let mut ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, dataset.len());
        run(&mut ctx, &SiMethod, &dataset, &dataset.empty_set());
        // SI does no filtering: every dataset graph is a candidate.
        assert_eq!(ctx.cm.count(), dataset.len());
    }

    #[test]
    fn tombstones_masked_and_overlay_unioned() {
        let g0 = graph_from_parts(&[Label(0), Label(1)], &[(0, 1)]).unwrap();
        let g1 = graph_from_parts(&[Label(2)], &[]).unwrap();
        let mut dataset = Dataset::new(vec![g0, g1]);
        assert!(dataset.remove_graph(1));
        let g2 = graph_from_parts(&[Label(0)], &[]).unwrap();
        let inserted = dataset.insert_graph(g2) as usize;
        let q = graph_from_parts(&[Label(0)], &[]).unwrap();
        let mut ctx = PipelineCtx::new(&q, QueryKind::Subgraph, 1, dataset.len());
        // Pretend the method missed the insert: pass it as overlay.
        let overlay = BitSet::from_indices(dataset.len(), [inserted]);
        run(&mut ctx, &SiMethod, &dataset, &overlay);
        assert!(ctx.cm.contains(0), "live base graph stays");
        assert!(!ctx.cm.contains(1), "tombstoned graph masked out");
        assert!(ctx.cm.contains(inserted), "overlay graph unioned in");
    }
}
