//! Golden digests of simulated results.
//!
//! Every examined benchmark is run at `Scale::TEST` on each valid
//! system/organization pairing, and the FNV-1a digest of its encoded
//! [`RunReport`] (the exact bytes the disk cache stores) is compared with
//! a pinned value. Any change to the functional memory walk, the
//! bandwidth network or the report that moves a single simulated number
//! fails here, including the DMA flush/invalidate paths of the streamed
//! discrete runs and the chunked heterogeneous runs.
//!
//! A deliberate model change re-pins: run
//! `HETEROPIPE_GOLDEN_PRINT=1 cargo test -p heteropipe-engine --test golden -- --nocapture`
//! and paste the printed table over `PINS`.

use heteropipe::{run, Organization, SystemConfig};
use heteropipe_engine::codec;
use heteropipe_workloads::{registry, Scale};

/// The pairings `lower` accepts: serial on both systems, streams on the
/// discrete GPU, chunked parallelism on the heterogeneous processor.
fn pairings() -> [(&'static str, SystemConfig, Organization); 4] {
    [
        (
            "discrete/serial",
            SystemConfig::discrete(),
            Organization::Serial,
        ),
        (
            "heterogeneous/serial",
            SystemConfig::heterogeneous(),
            Organization::Serial,
        ),
        (
            "discrete/streams3",
            SystemConfig::discrete(),
            Organization::AsyncStreams { streams: 3 },
        ),
        (
            "heterogeneous/chunked6",
            SystemConfig::heterogeneous(),
            Organization::ChunkedParallel { chunks: 6 },
        ),
    ]
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of every examined benchmark under every pairing, in registry
/// order.
fn digests() -> Vec<(String, &'static str, u64)> {
    let mut out = Vec::new();
    for w in registry::examined() {
        let p = w.pipeline(Scale::TEST).expect("examined benchmarks build");
        for (label, config, org) in pairings() {
            let report = run::run(&p, &config, org, w.meta.misalignment_sensitive);
            out.push((w.meta.full_name(), label, fnv1a64(&codec::encode(&report))));
        }
    }
    out
}

#[test]
fn encoded_reports_match_pinned_digests() {
    let got = digests();
    if std::env::var_os("HETEROPIPE_GOLDEN_PRINT").is_some() {
        for (bench, label, d) in &got {
            println!("    (\"{bench}\", \"{label}\", 0x{d:016x}),");
        }
    }
    assert_eq!(got.len(), PINS.len(), "one pin per benchmark and pairing");
    let mut wrong = Vec::new();
    for ((bench, label, d), &(pb, pl, pd)) in got.iter().zip(PINS) {
        assert_eq!((bench.as_str(), *label), (pb, pl), "pin order");
        if *d != pd {
            wrong.push(format!("{bench} {label}: 0x{d:016x} (pinned 0x{pd:016x})"));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} simulated results changed:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

#[rustfmt::skip]
const PINS: &[(&str, &str, u64)] = &[
    ("lonestar/bfs", "discrete/serial", 0xffe6866cbe9de1ce),
    ("lonestar/bfs", "heterogeneous/serial", 0xaa5efab4c137d107),
    ("lonestar/bfs", "discrete/streams3", 0xc0e1bb4a5472a138),
    ("lonestar/bfs", "heterogeneous/chunked6", 0xeb321d4af18d96ca),
    ("lonestar/bfs_wla", "discrete/serial", 0xc33bbf46652592e3),
    ("lonestar/bfs_wla", "heterogeneous/serial", 0xa543a39606ccabb6),
    ("lonestar/bfs_wla", "discrete/streams3", 0xdcaf859ee94f9768),
    ("lonestar/bfs_wla", "heterogeneous/chunked6", 0x402d2f1ad8f49e1a),
    ("lonestar/bfs_wlc", "discrete/serial", 0x1c139fe0458a6899),
    ("lonestar/bfs_wlc", "heterogeneous/serial", 0xde98dca09e459019),
    ("lonestar/bfs_wlc", "discrete/streams3", 0x22985b452c4cbc1f),
    ("lonestar/bfs_wlc", "heterogeneous/chunked6", 0xca2c384e8cf428c2),
    ("lonestar/bfs_wlw", "discrete/serial", 0xbe3e9981a4102a5e),
    ("lonestar/bfs_wlw", "heterogeneous/serial", 0xc6f691c38d6b6f11),
    ("lonestar/bfs_wlw", "discrete/streams3", 0xca75080c1d669c1f),
    ("lonestar/bfs_wlw", "heterogeneous/chunked6", 0x982ab37178840ef8),
    ("lonestar/bh", "discrete/serial", 0x2bb87eb5ce8deb07),
    ("lonestar/bh", "heterogeneous/serial", 0x1c535dbd49ec8f16),
    ("lonestar/bh", "discrete/streams3", 0xa96de04204bad974),
    ("lonestar/bh", "heterogeneous/chunked6", 0xd9c8e5cbac1606e2),
    ("lonestar/dmr", "discrete/serial", 0xe166233ec469b7e1),
    ("lonestar/dmr", "heterogeneous/serial", 0x0e68308bd878762f),
    ("lonestar/dmr", "discrete/streams3", 0xb015fe5086ce258b),
    ("lonestar/dmr", "heterogeneous/chunked6", 0xbd474e889394d265),
    ("lonestar/mst", "discrete/serial", 0xa89b0fc0898fbbdf),
    ("lonestar/mst", "heterogeneous/serial", 0xf639eb0a60626776),
    ("lonestar/mst", "discrete/streams3", 0xba4dec23a81a6a08),
    ("lonestar/mst", "heterogeneous/chunked6", 0x24308b72417c91c4),
    ("lonestar/sp", "discrete/serial", 0xe1421c69151b95f6),
    ("lonestar/sp", "heterogeneous/serial", 0x7f3a8b631dc6e701),
    ("lonestar/sp", "discrete/streams3", 0x23a1aa66ce30f987),
    ("lonestar/sp", "heterogeneous/chunked6", 0x6f84598ca678a9f7),
    ("lonestar/sssp", "discrete/serial", 0x44090cce344e2c5e),
    ("lonestar/sssp", "heterogeneous/serial", 0x5fb415936f0f44c1),
    ("lonestar/sssp", "discrete/streams3", 0xe025ca019e311d25),
    ("lonestar/sssp", "heterogeneous/chunked6", 0x5fbd829ff9c82bb8),
    ("lonestar/sssp_wlc", "discrete/serial", 0x955f6a9fbd603cbd),
    ("lonestar/sssp_wlc", "heterogeneous/serial", 0xe6cf0178e87f5e25),
    ("lonestar/sssp_wlc", "discrete/streams3", 0x1df461e73163ab92),
    ("lonestar/sssp_wlc", "heterogeneous/chunked6", 0xf8bc62ba165be63b),
    ("lonestar/sssp_wln", "discrete/serial", 0xdb8641bdfe6edd80),
    ("lonestar/sssp_wln", "heterogeneous/serial", 0x00fde5995824efea),
    ("lonestar/sssp_wln", "discrete/streams3", 0xbf091d548fd63f1e),
    ("lonestar/sssp_wln", "heterogeneous/chunked6", 0x6a73f9ce141cd22f),
    ("pannotia/bc", "discrete/serial", 0x33a9d9f5103df904),
    ("pannotia/bc", "heterogeneous/serial", 0xba168318b06b531f),
    ("pannotia/bc", "discrete/streams3", 0x88f063a8d63326ca),
    ("pannotia/bc", "heterogeneous/chunked6", 0xa67f9f790c8e6a8b),
    ("pannotia/color_max", "discrete/serial", 0x9baa311c6fec7db6),
    ("pannotia/color_max", "heterogeneous/serial", 0xf29ef5574cae6c41),
    ("pannotia/color_max", "discrete/streams3", 0x8d1090dd1f661ad2),
    ("pannotia/color_max", "heterogeneous/chunked6", 0xf5289f755a85f611),
    ("pannotia/fw", "discrete/serial", 0x5dd749df65eba2e8),
    ("pannotia/fw", "heterogeneous/serial", 0xfee19551cdd175e6),
    ("pannotia/fw", "discrete/streams3", 0x315b5b032259eb86),
    ("pannotia/fw", "heterogeneous/chunked6", 0xbd16cc6b836c623d),
    ("pannotia/fw_block", "discrete/serial", 0x3b19d48fb0505457),
    ("pannotia/fw_block", "heterogeneous/serial", 0xa4655f09fdb20e67),
    ("pannotia/fw_block", "discrete/streams3", 0x9230b7bd75f78a46),
    ("pannotia/fw_block", "heterogeneous/chunked6", 0x6f06f829c8898fe6),
    ("pannotia/mis", "discrete/serial", 0x88480c756527e29e),
    ("pannotia/mis", "heterogeneous/serial", 0x69077a2c5c60c1be),
    ("pannotia/mis", "discrete/streams3", 0xfd0faaec990f4374),
    ("pannotia/mis", "heterogeneous/chunked6", 0xf90356ea0f255388),
    ("pannotia/pr", "discrete/serial", 0x50a92148ba62907c),
    ("pannotia/pr", "heterogeneous/serial", 0xc6643fc19189fc9c),
    ("pannotia/pr", "discrete/streams3", 0xb72feec86a6eb250),
    ("pannotia/pr", "heterogeneous/chunked6", 0x53abd5e250ba0fda),
    ("pannotia/pr_spmv", "discrete/serial", 0x5ef86653ff03757c),
    ("pannotia/pr_spmv", "heterogeneous/serial", 0x4e3afbbc43654db1),
    ("pannotia/pr_spmv", "discrete/streams3", 0xbee27ce935285607),
    ("pannotia/pr_spmv", "heterogeneous/chunked6", 0x76ef317a2933b52a),
    ("pannotia/sssp", "discrete/serial", 0x50187a5ce30014d5),
    ("pannotia/sssp", "heterogeneous/serial", 0x0784854f7e2b8beb),
    ("pannotia/sssp", "discrete/streams3", 0x82bfccdaeed37204),
    ("pannotia/sssp", "heterogeneous/chunked6", 0xdab0e6cc9adeb255),
    ("parboil/bfs", "discrete/serial", 0x86ab197588ecb97c),
    ("parboil/bfs", "heterogeneous/serial", 0xe1f387e7346542db),
    ("parboil/bfs", "discrete/streams3", 0x1b3b88b3028f01be),
    ("parboil/bfs", "heterogeneous/chunked6", 0xd37c5a77511e6b2e),
    ("parboil/cutcp", "discrete/serial", 0x626c892f2229157b),
    ("parboil/cutcp", "heterogeneous/serial", 0x89d9436288c207e4),
    ("parboil/cutcp", "discrete/streams3", 0x8d58095ba8a6b236),
    ("parboil/cutcp", "heterogeneous/chunked6", 0x8501f9ca72e3ae8e),
    ("parboil/fft", "discrete/serial", 0x447e4c88be5c057a),
    ("parboil/fft", "heterogeneous/serial", 0xfa65ea9421a9432e),
    ("parboil/fft", "discrete/streams3", 0xc21aa03126efb21a),
    ("parboil/fft", "heterogeneous/chunked6", 0xd5b93ce63f94d9cf),
    ("parboil/histo", "discrete/serial", 0x329f60e99d5298b2),
    ("parboil/histo", "heterogeneous/serial", 0x5b42aec17d841f79),
    ("parboil/histo", "discrete/streams3", 0xa5606bf06cffd9de),
    ("parboil/histo", "heterogeneous/chunked6", 0xd2c88ab189290541),
    ("parboil/lbm", "discrete/serial", 0x2917b1e3a0aa2661),
    ("parboil/lbm", "heterogeneous/serial", 0x9a13923e3efdbfea),
    ("parboil/lbm", "discrete/streams3", 0x92e9c0439b3cb45d),
    ("parboil/lbm", "heterogeneous/chunked6", 0x2ddc536bf47eb037),
    ("parboil/mri_q", "discrete/serial", 0x19e84f132ec6ecb3),
    ("parboil/mri_q", "heterogeneous/serial", 0x0deffa93e4a75e37),
    ("parboil/mri_q", "discrete/streams3", 0x6080cc7a5638b7fe),
    ("parboil/mri_q", "heterogeneous/chunked6", 0xd13c6082e480bc99),
    ("parboil/sgemm", "discrete/serial", 0x7a5bf56241f33d41),
    ("parboil/sgemm", "heterogeneous/serial", 0x2564b913c1d07762),
    ("parboil/sgemm", "discrete/streams3", 0xdf8f3540a7ef6fd2),
    ("parboil/sgemm", "heterogeneous/chunked6", 0xc738b43955fd9d90),
    ("parboil/spmv", "discrete/serial", 0x888dc6cbfb30e456),
    ("parboil/spmv", "heterogeneous/serial", 0x177280ffc11a579d),
    ("parboil/spmv", "discrete/streams3", 0x312790a42b06f3cd),
    ("parboil/spmv", "heterogeneous/chunked6", 0x97beacacc02b25a9),
    ("parboil/stencil", "discrete/serial", 0x20c0a733d38b6ba9),
    ("parboil/stencil", "heterogeneous/serial", 0xd0da6e29f707c9d7),
    ("parboil/stencil", "discrete/streams3", 0x63d5b3a94ec0082c),
    ("parboil/stencil", "heterogeneous/chunked6", 0x5a78e65add4528ac),
    ("rodinia/backprop", "discrete/serial", 0x4b467dacf9852bfd),
    ("rodinia/backprop", "heterogeneous/serial", 0x63970a84ea3390dd),
    ("rodinia/backprop", "discrete/streams3", 0xf66843622f9c3472),
    ("rodinia/backprop", "heterogeneous/chunked6", 0x1246ae0f9defa6b2),
    ("rodinia/bfs", "discrete/serial", 0x34605f454ff1148f),
    ("rodinia/bfs", "heterogeneous/serial", 0x82baea4e02d7d9a1),
    ("rodinia/bfs", "discrete/streams3", 0x7d4c7d3d1f0204db),
    ("rodinia/bfs", "heterogeneous/chunked6", 0x039186eacb44e669),
    ("rodinia/cell", "discrete/serial", 0x3a873a00b9c8cf3b),
    ("rodinia/cell", "heterogeneous/serial", 0x435942eb6dea025f),
    ("rodinia/cell", "discrete/streams3", 0x5eea7c676060dd51),
    ("rodinia/cell", "heterogeneous/chunked6", 0xb7faf8ec6e3a8327),
    ("rodinia/cfd", "discrete/serial", 0xa3197598322d9b3e),
    ("rodinia/cfd", "heterogeneous/serial", 0xbaf13be0b74d3538),
    ("rodinia/cfd", "discrete/streams3", 0xf8eb69d1be89af5e),
    ("rodinia/cfd", "heterogeneous/chunked6", 0xc517002a7faedc9b),
    ("rodinia/dwt", "discrete/serial", 0x7e2a2bbf48b93e44),
    ("rodinia/dwt", "heterogeneous/serial", 0x4441de0706abacdb),
    ("rodinia/dwt", "discrete/streams3", 0x4bf5a77623e83d76),
    ("rodinia/dwt", "heterogeneous/chunked6", 0x61baae3ed95591f1),
    ("rodinia/gaussian", "discrete/serial", 0x747e3c349f40b25e),
    ("rodinia/gaussian", "heterogeneous/serial", 0xfb10bd6ad6c69f64),
    ("rodinia/gaussian", "discrete/streams3", 0x406e51b98ec92227),
    ("rodinia/gaussian", "heterogeneous/chunked6", 0x09eec6125488ebf3),
    ("rodinia/heartwall", "discrete/serial", 0xc388ade2e0938c3d),
    ("rodinia/heartwall", "heterogeneous/serial", 0x3af7919ed6a64b9f),
    ("rodinia/heartwall", "discrete/streams3", 0x1337b54a2a6fead3),
    ("rodinia/heartwall", "heterogeneous/chunked6", 0x1ed6c8ee40597f39),
    ("rodinia/hotspot", "discrete/serial", 0xde88c51193d57193),
    ("rodinia/hotspot", "heterogeneous/serial", 0xd0b9a1441679c59d),
    ("rodinia/hotspot", "discrete/streams3", 0x108606e82f8847de),
    ("rodinia/hotspot", "heterogeneous/chunked6", 0xfd296ca368556a81),
    ("rodinia/kmeans", "discrete/serial", 0x4839cbf7176cba04),
    ("rodinia/kmeans", "heterogeneous/serial", 0x178d010aa7a5c005),
    ("rodinia/kmeans", "discrete/streams3", 0x695da912636ac108),
    ("rodinia/kmeans", "heterogeneous/chunked6", 0x4a19c89284f8ae68),
    ("rodinia/lud", "discrete/serial", 0x83ed686509de8bed),
    ("rodinia/lud", "heterogeneous/serial", 0x6d5d9a9b2b8bf10e),
    ("rodinia/lud", "discrete/streams3", 0x5b14f40db2bd2832),
    ("rodinia/lud", "heterogeneous/chunked6", 0x2aab4b7f0dc3408c),
    ("rodinia/mummer", "discrete/serial", 0x4e27e82044377db4),
    ("rodinia/mummer", "heterogeneous/serial", 0x8042379d809e8ec3),
    ("rodinia/mummer", "discrete/streams3", 0x285aebbb18942f85),
    ("rodinia/mummer", "heterogeneous/chunked6", 0xb7fd526172b0709f),
    ("rodinia/nn", "discrete/serial", 0xe7392e579a41d54c),
    ("rodinia/nn", "heterogeneous/serial", 0xa1b85bf0aa034519),
    ("rodinia/nn", "discrete/streams3", 0x575b4f132fad8f3a),
    ("rodinia/nn", "heterogeneous/chunked6", 0xca4e241c3bcc4cfd),
    ("rodinia/nw", "discrete/serial", 0x5adc386a66fce8bc),
    ("rodinia/nw", "heterogeneous/serial", 0x65e3abda78d356f8),
    ("rodinia/nw", "discrete/streams3", 0xcff075b9c479ecc3),
    ("rodinia/nw", "heterogeneous/chunked6", 0x24cbf9cff7962894),
    ("rodinia/pathfinder", "discrete/serial", 0x816a1c92cab2938c),
    ("rodinia/pathfinder", "heterogeneous/serial", 0xa1ed595b909ca48b),
    ("rodinia/pathfinder", "discrete/streams3", 0x86de0efcc1ce0804),
    ("rodinia/pathfinder", "heterogeneous/chunked6", 0x562ea18714f65618),
    ("rodinia/pf_float", "discrete/serial", 0x3c22c5a20c2ec327),
    ("rodinia/pf_float", "heterogeneous/serial", 0x501ee76b6476f963),
    ("rodinia/pf_float", "discrete/streams3", 0xdd36121fc7855de0),
    ("rodinia/pf_float", "heterogeneous/chunked6", 0xf1b9659bf485ec21),
    ("rodinia/pf_naive", "discrete/serial", 0x8b18de0c1c467936),
    ("rodinia/pf_naive", "heterogeneous/serial", 0xc39d0c419ec4195a),
    ("rodinia/pf_naive", "discrete/streams3", 0x271772a1a23b042d),
    ("rodinia/pf_naive", "heterogeneous/chunked6", 0x266686ad35c7ac55),
    ("rodinia/srad", "discrete/serial", 0xe95b9daf51d125e8),
    ("rodinia/srad", "heterogeneous/serial", 0x944b0a7ccf7f5844),
    ("rodinia/srad", "discrete/streams3", 0x048dc37c945181e7),
    ("rodinia/srad", "heterogeneous/chunked6", 0x0fd5a29c26c765e8),
    ("rodinia/strmclstr", "discrete/serial", 0x7db5791bb9538630),
    ("rodinia/strmclstr", "heterogeneous/serial", 0xce8e563f209c3430),
    ("rodinia/strmclstr", "discrete/streams3", 0x68e91693d39e1aee),
    ("rodinia/strmclstr", "heterogeneous/chunked6", 0xf62e5e12ecc0db3e),
];
