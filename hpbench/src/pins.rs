//! Digests and counts pinned from the seed commit.
//!
//! A cold job's digest is FNV-1a over `codec::encode` of its report, in
//! canonical job order (benchmark by benchmark, discrete then
//! heterogeneous). Regenerate with `hpbench --print-pins cold_small|large`
//! only when a change is meant to alter simulation results.

use crate::cold::Counts;

/// Pinned per-job digests of a cold job set.
pub fn digests(workload: &str) -> &'static [u64] {
    match workload {
        "cold_small" => COLD_SMALL,
        "large" => LARGE,
        _ => &[],
    }
}

/// Pinned summed counts of one pass of a cold workload.
pub fn counts(workload: &str) -> Counts {
    match workload {
        "cold_small" => COLD_SMALL_COUNTS,
        _ => Counts::default(),
    }
}

const COLD_SMALL: &[u64] = &[
    0xb8a2c19fe2c49ced, // lonestar/bfs DiscreteGpu
    0x3728fb7b6728be3c, // lonestar/bfs Heterogeneous
    0xd4f767db63990ad5, // lonestar/bfs_wla DiscreteGpu
    0x790ed06d08012dcd, // lonestar/bfs_wla Heterogeneous
    0x7967374a0ac5884d, // lonestar/bfs_wlc DiscreteGpu
    0x48b766500c8cc693, // lonestar/bfs_wlc Heterogeneous
    0xc6eb7def69ce81c1, // lonestar/bfs_wlw DiscreteGpu
    0x919e97703e153949, // lonestar/bfs_wlw Heterogeneous
    0xff28b36476f5ebab, // lonestar/bh DiscreteGpu
    0x7e6f0725bf4d4a16, // lonestar/bh Heterogeneous
    0x53e37616c804ee52, // lonestar/dmr DiscreteGpu
    0xbe601f246b2bb4ac, // lonestar/dmr Heterogeneous
    0x564a6096a9a4e67c, // lonestar/mst DiscreteGpu
    0xd132c090afeb1a22, // lonestar/mst Heterogeneous
    0xf098493c8a8cb66f, // lonestar/sp DiscreteGpu
    0xc764ad8b73997319, // lonestar/sp Heterogeneous
    0x3556956589351ee8, // lonestar/sssp DiscreteGpu
    0x8bc1755c94746428, // lonestar/sssp Heterogeneous
    0xe82f98dde6ff265f, // lonestar/sssp_wlc DiscreteGpu
    0x0bf2d315abf59b44, // lonestar/sssp_wlc Heterogeneous
    0x3f031bf0f2b4cbf5, // lonestar/sssp_wln DiscreteGpu
    0x0ec8148794e30c96, // lonestar/sssp_wln Heterogeneous
    0xc764f47525d315f5, // pannotia/bc DiscreteGpu
    0xbd05eae84195170b, // pannotia/bc Heterogeneous
    0x47c7db4d4645fb06, // pannotia/color_max DiscreteGpu
    0x7adab474c70ee130, // pannotia/color_max Heterogeneous
    0xb5ccb22e928cf9ae, // pannotia/fw DiscreteGpu
    0x18e8f6105de79479, // pannotia/fw Heterogeneous
    0x564075686114cf96, // pannotia/fw_block DiscreteGpu
    0xab63498cae692dfd, // pannotia/fw_block Heterogeneous
    0x21a9fc3a1037b434, // pannotia/mis DiscreteGpu
    0x88c083dcc0a30fb2, // pannotia/mis Heterogeneous
    0x7b20116e087eb6d0, // pannotia/pr DiscreteGpu
    0x97d0d59fd9b8f523, // pannotia/pr Heterogeneous
    0xbab205dcb8494506, // pannotia/pr_spmv DiscreteGpu
    0xba4befeabd27f1e6, // pannotia/pr_spmv Heterogeneous
    0x6478162250bc0e58, // pannotia/sssp DiscreteGpu
    0x5656b2bc08dfa281, // pannotia/sssp Heterogeneous
    0x127265a137381ba1, // parboil/bfs DiscreteGpu
    0x9effc94f1f096cfe, // parboil/bfs Heterogeneous
    0xebe91380a79a9504, // parboil/cutcp DiscreteGpu
    0x28105d02f8f3c2e1, // parboil/cutcp Heterogeneous
    0x4f8fff7e4233a6fb, // parboil/fft DiscreteGpu
    0x337573f4317e2fc7, // parboil/fft Heterogeneous
    0x0fce60fd23662554, // parboil/histo DiscreteGpu
    0x740114f93a2ecbb5, // parboil/histo Heterogeneous
    0xbe8e5678bc5dddc8, // parboil/lbm DiscreteGpu
    0x587439f9265f3ba5, // parboil/lbm Heterogeneous
    0x20ee20c9a91b6556, // parboil/mri_q DiscreteGpu
    0x3fecddf88fd05e77, // parboil/mri_q Heterogeneous
    0x96a542e807c1f6ba, // parboil/sgemm DiscreteGpu
    0xc0e3e9d22061392a, // parboil/sgemm Heterogeneous
    0xd80778b03d903535, // parboil/spmv DiscreteGpu
    0x5e1b658b7a5e602a, // parboil/spmv Heterogeneous
    0x048fe8b3de935f8a, // parboil/stencil DiscreteGpu
    0xd1a8a3c25258d6b0, // parboil/stencil Heterogeneous
    0x773c5b631bf76fa7, // rodinia/backprop DiscreteGpu
    0x505ea784ebaa7fdc, // rodinia/backprop Heterogeneous
    0xe57398cd6e4be074, // rodinia/bfs DiscreteGpu
    0xe72e31970da6f4b9, // rodinia/bfs Heterogeneous
    0x467efc8c7848d141, // rodinia/cell DiscreteGpu
    0xff06adb9857362ff, // rodinia/cell Heterogeneous
    0xa280835447393e12, // rodinia/cfd DiscreteGpu
    0xb7806f194040162e, // rodinia/cfd Heterogeneous
    0xd6b678fb31761dec, // rodinia/dwt DiscreteGpu
    0x8a33e5a8b2da085a, // rodinia/dwt Heterogeneous
    0x9a8fa6a69e410767, // rodinia/gaussian DiscreteGpu
    0xe8cb0e8b3fcebda3, // rodinia/gaussian Heterogeneous
    0x3ac465a662c5f4d6, // rodinia/heartwall DiscreteGpu
    0x9c22202861b3578e, // rodinia/heartwall Heterogeneous
    0x13392d0e16d1cd04, // rodinia/hotspot DiscreteGpu
    0x71f64101d4d4af97, // rodinia/hotspot Heterogeneous
    0x7f3f012a9a61fa53, // rodinia/kmeans DiscreteGpu
    0x64649e141f01f76e, // rodinia/kmeans Heterogeneous
    0xdfa5c3486fcb4d36, // rodinia/lud DiscreteGpu
    0x6c4a5602bdd57239, // rodinia/lud Heterogeneous
    0x06b0c43a84dad5b5, // rodinia/mummer DiscreteGpu
    0x9b4e6b417651b39e, // rodinia/mummer Heterogeneous
    0x7ce673042049a8db, // rodinia/nn DiscreteGpu
    0x5ed8283ebf3b35f9, // rodinia/nn Heterogeneous
    0x1d1f97323d43710f, // rodinia/nw DiscreteGpu
    0xa5f011418199d9c5, // rodinia/nw Heterogeneous
    0x2f21593d8f0bc290, // rodinia/pathfinder DiscreteGpu
    0x0d1c0860bb8169a0, // rodinia/pathfinder Heterogeneous
    0xebad4040ddc7533a, // rodinia/pf_float DiscreteGpu
    0x54ad4e197a44befa, // rodinia/pf_float Heterogeneous
    0x8ee6b9ab3492caae, // rodinia/pf_naive DiscreteGpu
    0x8f85c86492ec1482, // rodinia/pf_naive Heterogeneous
    0x46f11ee5e0838567, // rodinia/srad DiscreteGpu
    0xaee57e1b1aafb2c3, // rodinia/srad Heterogeneous
    0x601146eb6723f2a7, // rodinia/strmclstr DiscreteGpu
    0xb823df23c548bfa7, // rodinia/strmclstr Heterogeneous
];
const COLD_SMALL_COUNTS: Counts = Counts {
    line_accesses: 20386518,
    offchip_fetches: 1098389,
    offchip_writebacks: 623987,
    page_faults: 1373,
    remote_hits: 74756,
    footprint_bytes: 104532736,
};
const LARGE: &[u64] = &[
    0x42bbc3025695ad0e, // pannotia/pr_spmv DiscreteGpu
    0xe09b328bf0179d0f, // pannotia/pr_spmv Heterogeneous
    0x21244a620eba2fe3, // rodinia/kmeans DiscreteGpu
    0x5aca7579d7abe016, // rodinia/kmeans Heterogeneous
    0xf8fd0355501a1ab1, // rodinia/hotspot DiscreteGpu
    0xc0902ce0b8e35902, // rodinia/hotspot Heterogeneous
    0x3e1922abc3fcd709, // rodinia/srad DiscreteGpu
    0x312771216a47d074, // rodinia/srad Heterogeneous
    0xd28456e5e2fee07a, // rodinia/bfs DiscreteGpu
    0xf084b273c4d3e21e, // rodinia/bfs Heterogeneous
    0x006f0cdbc13c5a73, // rodinia/backprop DiscreteGpu
    0x5b6fc6be56440a60, // rodinia/backprop Heterogeneous
];
