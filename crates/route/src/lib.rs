//! RUDY-style routability estimation over a binned die.
//!
//! Placement quality has three axes: timing, wirelength and
//! **routability**. The first two are covered by the evaluation kit; this
//! crate adds the third with the classic RUDY estimator (Rectangular
//! Uniform wire DensitY, Spindler & Johannes, DATE 2007): every net's
//! expected wirelength — its half-perimeter `w + h` — is spread uniformly
//! over the area of its bounding box, and the die is cut into a grid of
//! bins that accumulate the overlapping demand. A pin-density overlay adds
//! a fixed amount of demand per pin to the pin's bin, modelling the local
//! escape routing that bounding boxes miss. Dividing a bin's demand by
//! its routing capacity yields a utilization; utilization above 1 is
//! *overflow* — the signature of a design that will not route.
//!
//! The crate has four parts:
//!
//! * `config` — the model's knobs ([`RouteConfig`]) and the summary every
//!   front end reports ([`CongestionReport`]);
//! * `geom` — the bin grid and the one box rule (clamp, bin index,
//!   box × bin overlap) net demand, blockage and the penalty gradient
//!   share;
//! * `map` — the snapshot ([`CongestionMap`]): summary, fingerprint,
//!   heatmaps and [`CongestionMap::box_overflow`];
//! * `analyzer` — the full and incremental estimator
//!   ([`CongestionAnalyzer`]), its fixed-point per-bin sums and the
//!   per-net exposures.

mod analyzer;
mod config;
mod geom;
mod map;

pub use analyzer::CongestionAnalyzer;
pub use config::{CongestionReport, RouteConfig};
pub use map::{BoxOverflow, CongestionMap};

#[cfg(test)]
mod fixture {
    use crate::{CongestionAnalyzer, CongestionMap, RouteConfig};
    use netlist::{CellId, CellLibrary, Design, DesignBuilder, Placement, Rect};

    /// A die with two pads and a few inverters, placed by hand.
    pub(crate) fn toy() -> (Design, Placement, Vec<CellId>) {
        let mut b = DesignBuilder::new(
            "toy",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "INV_X1").unwrap();
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        let u3 = b.add_cell("u3", "NAND2_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 96.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (u1, "A"), (u2, "A")])
            .unwrap();
        b.add_net("n1", &[(u1, "Y"), (u3, "A")]).unwrap();
        b.add_net("n2", &[(u2, "Y"), (u3, "B")]).unwrap();
        b.add_net("n3", &[(u3, "Y"), (po, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(pi, 0.0, 50.0);
        p.set(po, 96.0, 50.0);
        p.set(u1, 20.0, 20.0);
        p.set(u2, 60.0, 70.0);
        p.set(u3, 40.0, 40.0);
        (d, p, vec![u1, u2, u3])
    }

    pub(crate) fn cfg() -> RouteConfig {
        RouteConfig {
            bins_x: 8,
            bins_y: 8,
            capacity: 1.0,
            pin_weight: 0.5,
            min_extent: 2.0,
            macro_blockage: 0.85,
        }
    }

    /// A full serial analysis of `placement` under [`cfg`].
    pub(crate) fn map_of(design: &Design, placement: &Placement) -> CongestionMap {
        let mut analyzer = CongestionAnalyzer::new(design, cfg());
        analyzer.analyze(design, placement);
        analyzer.map().clone()
    }
}
