//! The congestion model's knobs ([`RouteConfig`]) and the summary every
//! front end reports ([`CongestionReport`]).

/// Knobs of the congestion model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Grid bins along x (no power-of-two requirement; this grid feeds
    /// no FFT).
    pub bins_x: usize,
    /// Grid bins along y.
    pub bins_y: usize,
    /// Routing capacity per unit die area, in wirelength units — how
    /// much wire the router can realize per unit of area. A bin's
    /// capacity is `capacity * bin_area`; utilization is demand divided
    /// by that.
    pub capacity: f64,
    /// Demand added to a pin's bin per pin (the pin-density overlay, in
    /// wirelength units).
    pub pin_weight: f64,
    /// Floor on each bounding-box extent, keeping degenerate (collinear
    /// or single-bin) nets from producing unbounded densities.
    pub min_extent: f64,
    /// Fraction of a bin's routing capacity removed per unit of
    /// fixed-cell (macro / pad) footprint coverage, in `[0, 1)`. Hard
    /// macros consume most of the routing stack above them, so wire
    /// demand crossing a macro competes for the few layers that remain —
    /// this is what turns macro channels into congestion hot spots.
    pub macro_blockage: f64,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            bins_x: 32,
            bins_y: 32,
            capacity: 3.0,
            pin_weight: 2.0,
            min_extent: 4.0,
            macro_blockage: 0.85,
        }
    }
}

impl RouteConfig {
    /// Checks the knobs are usable (finite, positive where required,
    /// grid within [2, 512] per axis).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [("bins_x", self.bins_x), ("bins_y", self.bins_y)] {
            if !(2..=512).contains(&v) {
                return Err(format!("route.{name} must lie in [2, 512] (got {v})"));
            }
        }
        if !self.capacity.is_finite() || self.capacity <= 0.0 {
            return Err(format!(
                "route.capacity must be finite and positive (got {})",
                self.capacity
            ));
        }
        if !self.pin_weight.is_finite() || self.pin_weight < 0.0 {
            return Err(format!(
                "route.pin_weight must be finite and non-negative (got {})",
                self.pin_weight
            ));
        }
        if !self.min_extent.is_finite() || self.min_extent <= 0.0 {
            return Err(format!(
                "route.min_extent must be finite and positive (got {})",
                self.min_extent
            ));
        }
        if !self.macro_blockage.is_finite() || !(0.0..1.0).contains(&self.macro_blockage) {
            return Err(format!(
                "route.macro_blockage must lie in [0, 1) (got {})",
                self.macro_blockage
            ));
        }
        Ok(())
    }
}

/// Summary statistics of one congestion map — the compact,
/// report-friendly reduction every front end (flow outcomes, batch
/// reports, the serve wire) carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionReport {
    /// Grid bins along x.
    pub bins_x: usize,
    /// Grid bins along y.
    pub bins_y: usize,
    /// Worst bin utilization (demand / capacity; > 1 means overflow).
    pub peak: f64,
    /// Mean bin utilization.
    pub average: f64,
    /// Total overflow: `Σ_b max(0, utilization_b − 1)`.
    pub overflow: f64,
    /// Number of bins with utilization above 1.
    pub overflow_bins: usize,
    /// [`CongestionMap::content_hash`](crate::CongestionMap::content_hash)
    /// of the map the summary reduces — the bitwise fingerprint
    /// differential tests compare.
    pub map_hash: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_names_bad_fields() {
        assert!(RouteConfig::default().validate().is_ok());
        let bad = RouteConfig {
            bins_x: 1,
            ..RouteConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("bins_x"));
        let bad = RouteConfig {
            capacity: 0.0,
            ..RouteConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("capacity"));
        let bad = RouteConfig {
            pin_weight: f64::NAN,
            ..RouteConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("pin_weight"));
        let bad = RouteConfig {
            min_extent: -1.0,
            ..RouteConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("min_extent"));
        let bad = RouteConfig {
            macro_blockage: 1.0,
            ..RouteConfig::default()
        };
        assert!(bad.validate().unwrap_err().contains("macro_blockage"));
    }
}
