//! Regenerates **Table 1**: module-wise slice cost of the 32-bit Quarc
//! switch, plus the Spidergon counterpart and both transceivers.
//!
//! ```text
//! cargo run -p quarc-bench --bin table1 --release
//! ```

use quarc_area::{
    quarc_switch, quarc_transceiver, spidergon_switch, spidergon_transceiver, SwitchParams,
};
use quarc_bench::outln;

fn main() {
    let p = SwitchParams::with_width(32);

    outln!("# Table 1: module-wise cost analysis of a 32-bit Quarc switch (Virtex-II Pro slices)");
    outln!("design,module,slices");
    for b in
        [quarc_switch(&p), spidergon_switch(&p), quarc_transceiver(&p), spidergon_transceiver(&p)]
    {
        for m in &b.modules {
            outln!("{},{},{:.0}", b.design, m.name, m.slices);
        }
        outln!("{},TOTAL,{:.0}", b.design, b.total());
    }

    outln!("#");
    outln!("# paper anchors: Quarc switch total 1453 (735/7/186/30/64/431); Spidergon switch total 1700");
    outln!(
        "# model totals:  Quarc switch {:.0}; Spidergon switch {:.0}",
        quarc_switch(&p).total(),
        spidergon_switch(&p).total()
    );
}
