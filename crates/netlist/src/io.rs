//! Minimal Bookshelf-style text serialization.
//!
//! The ICCAD-2015 flow exchanges placements as DEF; this reproduction uses
//! the simpler Bookshelf `.pl` format (one line per cell) plus `.nodes` /
//! `.nets` dumps for inspection. Reading a `.pl` back onto an existing
//! [`Design`] is the round-trip exercised by the placer harness.

use crate::design::{Design, NetlistError};
use crate::ids::CellId;
use crate::placement::Placement;
use std::fmt;
use std::fmt::Write as _;

/// A parse failure in one of the text formats, pointing at the offending
/// line.
///
/// All user-input parse paths in this module report through this type —
/// malformed input can never panic. Flow-level callers surface it through
/// their own error enum (`tdp_core::FlowError::Parse`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line; 0 when the error is not
    /// tied to a specific line.
    pub line: usize,
    /// Human-readable description of what was wrong.
    pub message: String,
}

impl ParseError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "parse error at line {}: {}", self.line, self.message)
        } else {
            write!(f, "parse error: {}", self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for NetlistError {
    fn from(e: ParseError) -> Self {
        NetlistError::Invalid(e.to_string())
    }
}

/// Serializes the node list (`.nodes`): name, width, height, movability.
pub fn write_nodes(design: &Design) -> String {
    let mut out = String::new();
    let stats = design.stats();
    let _ = writeln!(out, "UCLA nodes 1.0");
    let _ = writeln!(out, "NumNodes : {}", stats.num_cells);
    let _ = writeln!(out, "NumTerminals : {}", stats.num_fixed);
    for cell in design.cell_ids() {
        let c = design.cell(cell);
        let ty = design.cell_type(cell);
        let terminal = if c.fixed { " terminal" } else { "" };
        let _ = writeln!(out, "  {} {} {}{}", c.name, ty.width, ty.height, terminal);
    }
    out
}

/// Serializes the net list (`.nets`): per net, its pins with offsets.
pub fn write_nets(design: &Design) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "UCLA nets 1.0");
    let _ = writeln!(out, "NumNets : {}", design.num_nets());
    let _ = writeln!(out, "NumPins : {}", design.topology().num_slots());
    for net in design.net_ids() {
        let pins = design.net_pins(net);
        let _ = writeln!(out, "NetDegree : {} {}", pins.len(), design.net(net).name);
        for &pin in pins {
            let p = design.pin(pin);
            let spec = design.pin_spec(pin);
            let io = match spec.direction {
                crate::library::PinDirection::Output => "O",
                crate::library::PinDirection::Input => "I",
            };
            let _ = writeln!(
                out,
                "  {} {} : {:.4} {:.4}",
                design.cell(p.cell).name,
                io,
                spec.dx,
                spec.dy
            );
        }
    }
    out
}

/// Serializes a placement (`.pl`): one `name x y : N` line per cell.
pub fn write_pl(design: &Design, placement: &Placement) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "UCLA pl 1.0");
    for cell in design.cell_ids() {
        let c = design.cell(cell);
        let (x, y) = placement.get(cell);
        let fixed = if c.fixed { " /FIXED" } else { "" };
        let _ = writeln!(out, "{} {:.6} {:.6} : N{}", c.name, x, y, fixed);
    }
    out
}

/// Parses a `.pl` produced by [`write_pl`] back onto `design`.
///
/// Unknown cell names and malformed lines are errors; cells absent from the
/// file keep their position from `base` (or 0,0 when `base` is `None`).
///
/// # Errors
///
/// Returns [`ParseError`] on parse failure or unknown cells.
pub fn read_pl(
    design: &Design,
    text: &str,
    base: Option<&Placement>,
) -> Result<Placement, ParseError> {
    let mut placement = base.cloned().unwrap_or_else(|| Placement::new(design));
    // Build a name→id map once; Design::find_cell is linear.
    let names: std::collections::HashMap<&str, CellId> = design
        .cell_ids()
        .map(|c| (design.cell(c).name.as_str(), c))
        .collect();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("UCLA") {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(xs), Some(ys)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(ParseError::at(
                lineno + 1,
                format!("malformed .pl line: {line:?}"),
            ));
        };
        let cell = *names
            .get(name)
            .ok_or_else(|| ParseError::at(lineno + 1, format!("unknown cell {name:?} in .pl")))?;
        let x: f64 = xs
            .parse()
            .map_err(|_| ParseError::at(lineno + 1, format!("bad x coordinate {xs:?}")))?;
        let y: f64 = ys
            .parse()
            .map_err(|_| ParseError::at(lineno + 1, format!("bad y coordinate {ys:?}")))?;
        placement.set(cell, x, y);
    }
    Ok(placement)
}

/// Serializes the placement as a minimal DEF subset (DESIGN/DIEAREA/
/// COMPONENTS), the exchange format of the paper's flow (Fig. 1 emits
/// `.def`). Coordinates are written in integer DBU at `dbu` units per
/// placement unit.
pub fn write_def(design: &Design, placement: &Placement, dbu: f64) -> String {
    let mut out = String::new();
    let die = design.die();
    let d = |v: f64| (v * dbu).round() as i64;
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", design.name());
    let _ = writeln!(out, "UNITS DISTANCE MICRONS {} ;", dbu as i64);
    let _ = writeln!(
        out,
        "DIEAREA ( {} {} ) ( {} {} ) ;",
        d(die.lx),
        d(die.ly),
        d(die.ux),
        d(die.uy)
    );
    let _ = writeln!(out, "COMPONENTS {} ;", design.num_cells());
    for cell in design.cell_ids() {
        let c = design.cell(cell);
        let ty = design.cell_type(cell);
        let (x, y) = placement.get(cell);
        let kind = if c.fixed { "FIXED" } else { "PLACED" };
        let _ = writeln!(
            out,
            "- {} {} + {} ( {} {} ) N ;",
            c.name,
            ty.name,
            kind,
            d(x),
            d(y)
        );
    }
    let _ = writeln!(out, "END COMPONENTS");
    let _ = writeln!(out, "END DESIGN");
    out
}

/// Parses a DEF produced by [`write_def`] back onto `design`.
///
/// Only the COMPONENTS placement is read; the netlist itself must already
/// exist (DEF placement exchange, as in the ICCAD-2015 flow).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed component lines, unknown
/// instances, or master-name mismatches.
pub fn read_def(design: &Design, text: &str) -> Result<Placement, ParseError> {
    let mut placement = Placement::new(design);
    let names: std::collections::HashMap<&str, CellId> = design
        .cell_ids()
        .map(|c| (design.cell(c).name.as_str(), c))
        .collect();
    // DBU from the UNITS line; default 1.
    let mut dbu = 1.0f64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let n = lineno + 1;
        if let Some(rest) = line.strip_prefix("UNITS DISTANCE MICRONS ") {
            let v = rest.trim_end_matches(';').trim();
            dbu = v
                .parse()
                .map_err(|_| ParseError::at(n, format!("bad UNITS value {v:?}")))?;
            continue;
        }
        let Some(rest) = line.strip_prefix("- ") else {
            continue;
        };
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        // - <name> <master> + PLACED|FIXED ( x y ) N ;
        if tokens.len() < 9 || tokens[2] != "+" || tokens[4] != "(" {
            return Err(ParseError::at(
                n,
                format!("malformed DEF component line: {line:?}"),
            ));
        }
        let cell = *names
            .get(tokens[0])
            .ok_or_else(|| ParseError::at(n, format!("unknown component {:?}", tokens[0])))?;
        let expected = &design.cell_type(cell).name;
        if tokens[1] != expected {
            return Err(ParseError::at(
                n,
                format!(
                    "component {} master mismatch: DEF says {:?}, design says {:?}",
                    tokens[0], tokens[1], expected
                ),
            ));
        }
        let x: f64 = tokens[5]
            .parse()
            .map_err(|_| ParseError::at(n, format!("bad x in DEF line {line:?}")))?;
        let y: f64 = tokens[6]
            .parse()
            .map_err(|_| ParseError::at(n, format!("bad y in DEF line {line:?}")))?;
        placement.set(cell, x / dbu, y / dbu);
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignBuilder, Rect};
    use crate::library::CellLibrary;

    fn sample() -> (Design, Placement) {
        let mut b = DesignBuilder::new(
            "t",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "NAND2_X1").unwrap();
        let u2 = b.add_cell("u2", "INV_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 96.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (u1, "A"), (u1, "B")])
            .unwrap();
        b.add_net("n1", &[(u1, "Y"), (u2, "A")]).unwrap();
        b.add_net("n2", &[(u2, "Y"), (po, "PAD")]).unwrap();
        let d = b.finish().unwrap();
        let mut p = Placement::new(&d);
        p.set(pi, 0.0, 50.0);
        p.set(u1, 33.25, 40.0);
        p.set(u2, 61.5, 70.0);
        p.set(po, 96.0, 50.0);
        (d, p)
    }

    #[test]
    fn pl_round_trips() {
        let (d, p) = sample();
        let text = write_pl(&d, &p);
        let back = read_pl(&d, &text, None).unwrap();
        for c in d.cell_ids() {
            let (ax, ay) = p.get(c);
            let (bx, by) = back.get(c);
            assert!((ax - bx).abs() < 1e-6 && (ay - by).abs() < 1e-6);
        }
    }

    #[test]
    fn nodes_and_nets_dumps_have_headers() {
        let (d, _) = sample();
        let nodes = write_nodes(&d);
        assert!(nodes.contains("NumNodes : 4"));
        assert!(nodes.contains("NumTerminals : 2"));
        assert!(nodes.contains("pi") && nodes.contains("terminal"));
        let nets = write_nets(&d);
        assert!(nets.contains("NumNets : 3"));
        assert!(nets.contains("NetDegree : 3 n0"));

        // A floating pin (u1/B) is not listed, so `NumPins` must not
        // count it: the header equals the number of pin lines.
        let mut b = DesignBuilder::new(
            "f",
            CellLibrary::standard(),
            Rect::new(0.0, 0.0, 100.0, 100.0),
            10.0,
        );
        let pi = b.add_fixed_cell("pi", "IOPAD_IN", 0.0, 50.0).unwrap();
        let u1 = b.add_cell("u1", "NAND2_X1").unwrap();
        let po = b.add_fixed_cell("po", "IOPAD_OUT", 96.0, 50.0).unwrap();
        b.add_net("n0", &[(pi, "PAD"), (u1, "A")]).unwrap();
        b.add_net("n1", &[(u1, "Y"), (po, "PAD")]).unwrap();
        let floating = b.finish().unwrap();
        let nets = write_nets(&floating);
        let pin_lines = nets.lines().filter(|l| l.starts_with("  ")).count();
        assert_eq!(pin_lines, 4);
        assert_eq!(floating.num_pins(), 5);
        assert!(nets.contains(&format!("NumPins : {pin_lines}\n")), "{nets}");
    }

    #[test]
    fn read_pl_rejects_unknown_cell() {
        let (d, _) = sample();
        let err = read_pl(&d, "ghost 1.0 2.0 : N", None).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn read_pl_rejects_malformed_line() {
        let (d, _) = sample();
        assert!(read_pl(&d, "u1 onlyx", None).is_err());
        assert!(read_pl(&d, "u1 abc def : N", None).is_err());
    }

    #[test]
    fn def_round_trips() {
        let (d, p) = sample();
        let text = write_def(&d, &p, 1000.0);
        assert!(text.contains("DESIGN t ;"));
        assert!(text.contains("COMPONENTS 4 ;"));
        assert!(text.contains("+ FIXED"));
        assert!(text.contains("+ PLACED"));
        let back = read_def(&d, &text).unwrap();
        for c in d.cell_ids() {
            let (ax, ay) = p.get(c);
            let (bx, by) = back.get(c);
            assert!((ax - bx).abs() < 1e-3 && (ay - by).abs() < 1e-3);
        }
    }

    #[test]
    fn read_def_rejects_master_mismatch() {
        let (d, _) = sample();
        let text = "- u1 INV_X1 + PLACED ( 0 0 ) N ;";
        let err = read_def(&d, text).unwrap_err();
        assert!(err.to_string().contains("master mismatch"));
    }

    #[test]
    fn read_def_rejects_unknown_component() {
        let (d, _) = sample();
        assert!(read_def(&d, "- ghost INV_X1 + PLACED ( 0 0 ) N ;").is_err());
        assert!(read_def(&d, "- u1 NAND2_X1 + PLACED ( zz 0 ) N ;").is_err());
    }

    #[test]
    fn read_pl_keeps_base_positions() {
        let (d, p) = sample();
        let partial = "u1 5.0 6.0 : N\n";
        let back = read_pl(&d, partial, Some(&p)).unwrap();
        assert_eq!(back.get(d.find_cell("u1").unwrap()), (5.0, 6.0));
        assert_eq!(
            back.get(d.find_cell("u2").unwrap()),
            p.get(d.find_cell("u2").unwrap())
        );
    }
}
