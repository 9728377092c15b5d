//! # boils-mapper — FPGA k-LUT technology mapping
//!
//! A priority-cut LUT mapper equivalent to ABC's `if -K 6`: bounded cut
//! enumeration per node, a depth-oriented selection pass and area-recovery
//! passes (area flow, exact local area) under required-time constraints.
//!
//! In the BOiLS pipeline this crate supplies the two numbers that define the
//! paper's QoR (Eq. 1): `Area` = LUT count and `Delay` = LUT levels, exactly
//! what ABC's `print_stats` reports after FPGA mapping.
//!
//! ## Example
//!
//! ```
//! use boils_aig::Aig;
//! use boils_mapper::{map_stats, MapperConfig};
//!
//! let mut aig = Aig::new(3);
//! let (a, b, c) = (aig.pi(0), aig.pi(1), aig.pi(2));
//! let f = aig.maj(a, b, c);
//! aig.add_po(f);
//!
//! let stats = map_stats(&aig, &MapperConfig::default());
//! assert_eq!(stats.luts, 1); // majority-of-3 fits a single 6-LUT
//! assert_eq!(stats.levels, 1);
//! ```

mod cut;
mod mapper;

pub use crate::cut::{cut_function, Cut};
pub use crate::mapper::{
    map_aig, map_stats, synth_stats, MapStats, MappedLut, MapperConfig, Mapping, SynthStats,
    LUT_SIZES,
};
