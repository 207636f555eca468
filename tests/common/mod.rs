//! Helpers shared by the root integration tests (a directory module, so
//! Cargo does not build it as a test target of its own).

use efficient_tdp::netlist::{CellId, CellTypeId, Design, DesignBuilder};

/// Rebuilds `design` through `DesignBuilder` with `retype`'s masters
/// substituted (the last entry for a cell wins) — the same cells, nets
/// in net-pin order and SDC, constructed with the new masters from the
/// start, so it never goes through `Design::set_cell_type`.
pub fn rebuilt_with(design: &Design, retype: &[(CellId, CellTypeId)]) -> Design {
    let lib = design.library();
    let mut b = DesignBuilder::new(
        design.name(),
        lib.clone(),
        design.die(),
        design.row_height(),
    );
    b.set_sdc(design.sdc().clone());
    for c in design.cell_ids() {
        let cell = design.cell(c);
        let ty = retype
            .iter()
            .rev()
            .find(|&&(r, _)| r == c)
            .map_or(cell.type_id, |&(_, t)| t);
        let name = &lib.get(ty).name;
        let id = if cell.fixed {
            b.add_fixed_cell(&cell.name, name, 0.0, 0.0)
        } else {
            b.add_cell(&cell.name, name)
        };
        assert_eq!(id.unwrap(), c);
    }
    for n in design.net_ids() {
        let terminals: Vec<(CellId, &str)> = design
            .net_pins(n)
            .iter()
            .map(|&p| (design.pin(p).cell, design.pin_spec(p).name.as_str()))
            .collect();
        assert_eq!(b.add_net(&design.net(n).name, &terminals).unwrap(), n);
    }
    b.finish().unwrap()
}
