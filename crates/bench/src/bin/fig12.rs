//! Regenerates **Fig. 12**: slice-count comparison of the Quarc and
//! Spidergon switches at 16/32/64-bit datapath widths.
//!
//! ```text
//! cargo run -p quarc-bench --bin fig12 --release
//! ```

use quarc_area::fig12_series;
use quarc_bench::outln;

fn main() {
    outln!("# Fig. 12: cost comparison between Quarc and Spidergon switches");
    outln!("width_bits,quarc_slices,spidergon_slices,quarc_over_spidergon");
    for (w, q, s) in fig12_series() {
        outln!("{w},{q:.0},{s:.0},{:.3}", q / s);
    }
    outln!("#");
    outln!("# shape check: Quarc < Spidergon at every width; both grow sub-linearly in width");
    let series = fig12_series();
    let ok = series.iter().all(|(_, q, s)| q < s);
    outln!("# quarc_smaller_everywhere = {ok}");
}
