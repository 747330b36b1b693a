//! Scaled-down look-alikes of the paper's five datasets (Table I).
//!
//! The paper's datasets are up to 434 GB; the presets here scale instance
//! counts by ~1/1000 and feature counts by ~1/1000 while preserving the
//! property that drives the experimental contrasts: whether the problem is
//! *determined* (more instances than features — avazu, kdd12, WX) or
//! *underdetermined* (more features than instances — url, kddb).
//!
//! | Preset | paper n | paper d | ours n | ours d | shape |
//! |---|---|---|---|---|---|
//! | avazu-like | 40,428,967 | 1,000,000 | 40,429 | 1,000 | determined |
//! | url-like | 2,396,130 | 3,231,961 | 2,396 | 3,232 | underdetermined |
//! | kddb-like | 19,264,097 | 29,890,095 | 19,264 | 29,890 | underdetermined |
//! | kdd12-like | 149,639,105 | 54,686,452 | 74,820 | 27,343 | determined |
//! | wx-like | 231,937,380 | 51,121,518 | 115,969 | 25,561 | determined |
//!
//! (kdd12 and WX are scaled 2000× to keep full benchmark sweeps fast;
//! their determined shape and relative model sizes are preserved.)

use crate::SyntheticConfig;

/// Original Table I statistics for a paper dataset, for side-by-side
/// reporting in the Table I benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperDatasetStats {
    /// Dataset name as it appears in the paper.
    pub name: &'static str,
    /// `#Instances` from Table I.
    pub instances: u64,
    /// `#Features` from Table I.
    pub features: u64,
    /// `Size` from Table I.
    pub size: &'static str,
}

/// Table I of the paper, verbatim.
pub fn paper_table1() -> Vec<PaperDatasetStats> {
    vec![
        PaperDatasetStats {
            name: "avazu",
            instances: 40_428_967,
            features: 1_000_000,
            size: "7.4GB",
        },
        PaperDatasetStats {
            name: "url",
            instances: 2_396_130,
            features: 3_231_961,
            size: "2.1GB",
        },
        PaperDatasetStats {
            name: "kddb",
            instances: 19_264_097,
            features: 29_890_095,
            size: "4.8GB",
        },
        PaperDatasetStats {
            name: "kdd12",
            instances: 149_639_105,
            features: 54_686_452,
            size: "21GB",
        },
        PaperDatasetStats {
            name: "WX",
            instances: 231_937_380,
            features: 51_121_518,
            size: "434GB",
        },
    ]
}

/// avazu-like: determined, low-dimensional, CTR-style one-hot rows.
pub fn avazu_like() -> SyntheticConfig {
    SyntheticConfig {
        name: "avazu-like".to_owned(),
        num_instances: 40_429,
        num_features: 1_000,
        avg_nnz: 15,
        feature_skew: 2.0,
        margin_noise: 0.3,
        flip_prob: 0.02,
        binary_features: true,
        margin_scale: 2.5,
        informative_features: 30,
        popular_fraction: 0.35,
        seed: 0xA7A2_0001,
    }
}

/// url-like: underdetermined (d > n), denser rows, real-valued features.
pub fn url_like() -> SyntheticConfig {
    SyntheticConfig {
        name: "url-like".to_owned(),
        num_instances: 2_396,
        num_features: 3_232,
        avg_nnz: 80,
        feature_skew: 1.3,
        margin_noise: 0.1,
        flip_prob: 0.01,
        binary_features: false,
        margin_scale: 2.5,
        informative_features: 60,
        popular_fraction: 0.35,
        seed: 0xA7A2_0002,
    }
}

/// kddb-like: underdetermined and very high-dimensional.
pub fn kddb_like() -> SyntheticConfig {
    SyntheticConfig {
        name: "kddb-like".to_owned(),
        num_instances: 19_264,
        num_features: 29_890,
        avg_nnz: 30,
        feature_skew: 1.4,
        margin_noise: 0.1,
        flip_prob: 0.02,
        binary_features: true,
        margin_scale: 2.5,
        informative_features: 50,
        popular_fraction: 0.35,
        seed: 0xA7A2_0003,
    }
}

/// kdd12-like: determined, the largest public model in the study.
pub fn kdd12_like() -> SyntheticConfig {
    SyntheticConfig {
        name: "kdd12-like".to_owned(),
        num_instances: 74_820,
        num_features: 27_343,
        avg_nnz: 12,
        feature_skew: 1.8,
        margin_noise: 0.3,
        flip_prob: 0.02,
        binary_features: true,
        margin_scale: 2.5,
        informative_features: 40,
        popular_fraction: 0.35,
        seed: 0xA7A2_0004,
    }
}

/// wx-like: the Tencent production workload — determined, largest volume.
pub fn wx_like() -> SyntheticConfig {
    SyntheticConfig {
        name: "wx-like".to_owned(),
        num_instances: 115_969,
        num_features: 25_561,
        avg_nnz: 25,
        feature_skew: 1.6,
        margin_noise: 0.4,
        flip_prob: 0.05,
        binary_features: true,
        margin_scale: 2.0,
        informative_features: 40,
        popular_fraction: 0.3,
        seed: 0xA7A2_0005,
    }
}

/// The preset a command line names (`avazu`, `url`, `kddb`, `kdd12`,
/// `wx`), or `None` for anything else. Every binary that takes a preset
/// name resolves it here, so a typo is an error instead of a default.
pub fn preset(name: &str) -> Option<SyntheticConfig> {
    match name {
        "avazu" => Some(avazu_like()),
        "url" => Some(url_like()),
        "kddb" => Some(kddb_like()),
        "kdd12" => Some(kdd12_like()),
        "wx" => Some(wx_like()),
        _ => None,
    }
}

/// The four public presets in Figure 4/5 order.
pub fn public_presets() -> Vec<SyntheticConfig> {
    vec![avazu_like(), url_like(), kddb_like(), kdd12_like()]
}

/// All five presets in Table I order.
pub fn all_presets() -> Vec<SyntheticConfig> {
    vec![
        avazu_like(),
        url_like(),
        kddb_like(),
        kdd12_like(),
        wx_like(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinedness_matches_the_paper() {
        let check = |cfg: SyntheticConfig, underdetermined: bool| {
            assert_eq!(
                cfg.num_features > cfg.num_instances,
                underdetermined,
                "{}",
                cfg.name
            );
        };
        check(avazu_like(), false);
        check(url_like(), true);
        check(kddb_like(), true);
        check(kdd12_like(), false);
        check(wx_like(), false);
    }

    #[test]
    fn preset_names_resolve_and_typos_do_not() {
        for cfg in all_presets() {
            let short = cfg.name.trim_end_matches("-like");
            assert_eq!(preset(short), Some(cfg));
        }
        assert_eq!(preset("kdd"), None);
        assert_eq!(preset("avazu-like"), None);
    }

    #[test]
    fn relative_ordering_of_sizes_preserved() {
        // WX has the most instances; kdd12 the biggest public dataset;
        // avazu the smallest feature space.
        assert!(wx_like().num_instances > kdd12_like().num_instances);
        assert!(kdd12_like().num_instances > avazu_like().num_instances);
        let min_d = all_presets().iter().map(|c| c.num_features).min().unwrap();
        assert_eq!(min_d, avazu_like().num_features);
    }

    #[test]
    fn paper_table1_has_five_rows_matching_presets() {
        let t = paper_table1();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].name, "avazu");
        assert_eq!(t[4].size, "434GB");
        // Scaled presets divide instances by roughly their scale factor.
        let ratio0 = t[0].instances as f64 / avazu_like().num_instances as f64;
        assert!((ratio0 - 1000.0).abs() < 1.0, "avazu ratio {ratio0}");
        let ratio3 = t[3].instances as f64 / kdd12_like().num_instances as f64;
        assert!((ratio3 - 2000.0).abs() < 1.0, "kdd12 ratio {ratio3}");
    }

    #[test]
    fn scaled_presets_generate_quickly_and_validly() {
        // Use heavy scaling in tests; full generation is exercised by the
        // benches.
        for cfg in all_presets() {
            let ds = cfg.scaled_down(64).generate();
            assert!(ds.len() >= 16);
            let stats = ds.stats();
            assert!(stats.avg_nnz >= 1.0);
        }
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds: Vec<u64> = all_presets().iter().map(|c| c.seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(seeds.len(), dedup.len());
    }
}
