//! The versioned model registry with staged rollout.
//!
//! A registry holds named model lines. Each publish of an artifact under
//! a name allocates the next version number. The first publish becomes
//! the **active** (serving) version; later publishes land as **staged**
//! — warmed but not serving — until [`ModelRegistry::promote`] flips them
//! active, mirroring how a serving fleet rolls a new model out behind the
//! one currently taking traffic. [`ModelRegistry::pin`] rolls back (or
//! forward) to any retained version.
//!
//! All state lives in ordered maps so iteration order — and therefore any
//! report derived from the registry — is deterministic.
//!
//! A registry is durable: [`ModelRegistry::encode`] snapshots every model
//! line — retained versions, active pointer, in-flight stage — into a
//! single checksummed `mlstar-codec` frame (magic `"MLSR"`), and
//! [`ModelRegistry::decode`] restores it, refusing structurally impossible
//! snapshots (an active pointer at a missing version, duplicate version
//! numbers, dimension drift within a line) with distinct [`ServeError`]
//! variants instead of serving from inconsistent state.
//!
//! Snapshots are **incremental**: a snapshot file is a chain of frames
//! (each self-delimiting via the header's payload length), where the
//! first frame is a full snapshot and each later frame is a delta holding
//! only the versions published — plus any rollout-pointer moves — since
//! the previous frame. [`ModelRegistry::append_file`] writes such a delta
//! past the persisted state instead of rewriting the ever-growing
//! artifact history; [`ModelRegistry::decode`] folds the chain back
//! together and validates the merged result, so a chained file and a
//! full rewrite decode to the same registry.

use std::collections::BTreeMap;

use mlstar_codec::{decode_frame, schema, Reader, Writer, HEADER_LEN};

use crate::{ModelArtifact, ServeError};

/// `"MLSR"` — the registry snapshot file magic.
pub const REGISTRY_MAGIC: u32 = 0x4D4C_5352;

/// The registry snapshot codec version this module writes and reads.
pub const REGISTRY_VERSION: u32 = 1;

/// One named model line: every retained version plus rollout state.
#[derive(Debug, Clone, PartialEq)]
struct ModelEntry {
    versions: BTreeMap<u64, ModelArtifact>,
    /// The version currently serving traffic.
    active: u64,
    /// A published-but-not-yet-promoted version, if any.
    staged: Option<u64>,
}

/// A versioned artifact store with staged rollout and a durable snapshot
/// codec ([`ModelRegistry::encode`] / [`ModelRegistry::decode`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelRegistry {
    entries: BTreeMap<String, ModelEntry>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Publishes `artifact` under `name`, returning the version number it
    /// was assigned (versions start at 1). The first version of a name
    /// becomes active immediately; subsequent versions are staged and
    /// replace any previously staged version.
    ///
    /// Fails with [`ServeError::DimensionMismatch`] if the artifact's
    /// dimension disagrees with the versions already published under the
    /// same name — a model line serves one feature space.
    pub fn publish(&mut self, name: &str, artifact: ModelArtifact) -> Result<u64, ServeError> {
        match self.entries.get_mut(name) {
            None => {
                let mut versions = BTreeMap::new();
                versions.insert(1, artifact);
                self.entries.insert(
                    name.to_string(),
                    ModelEntry {
                        versions,
                        active: 1,
                        staged: None,
                    },
                );
                Ok(1)
            }
            Some(entry) => {
                let expected = entry.versions[&entry.active].dim();
                if artifact.dim() != expected {
                    return Err(ServeError::DimensionMismatch {
                        expected,
                        found: artifact.dim(),
                    });
                }
                let version = entry.versions.keys().next_back().copied().unwrap_or(0) + 1;
                entry.versions.insert(version, artifact);
                entry.staged = Some(version);
                Ok(version)
            }
        }
    }

    /// Promotes the staged version of `name` to active.
    ///
    /// Fails with [`ServeError::UnknownModel`] for an unregistered name
    /// and [`ServeError::NothingStaged`] if no rollout is in flight.
    pub fn promote(&mut self, name: &str) -> Result<u64, ServeError> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        match entry.staged.take() {
            Some(v) => {
                entry.active = v;
                Ok(v)
            }
            None => Err(ServeError::NothingStaged(name.to_string())),
        }
    }

    /// Pins the active version of `name` to `version` (rollback or
    /// roll-forward). Clears the staged version if it is the one pinned.
    ///
    /// Fails with [`ServeError::UnknownModel`] /
    /// [`ServeError::UnknownVersion`].
    pub fn pin(&mut self, name: &str, version: u64) -> Result<(), ServeError> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        if !entry.versions.contains_key(&version) {
            return Err(ServeError::UnknownVersion {
                name: name.to_string(),
                version,
            });
        }
        entry.active = version;
        if entry.staged == Some(version) {
            entry.staged = None;
        }
        Ok(())
    }

    /// Pins the active version of `name` to its latest published version,
    /// returning that version.
    pub fn pin_latest(&mut self, name: &str) -> Result<u64, ServeError> {
        let latest = {
            let entry = self
                .entries
                .get(name)
                .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
            *entry.versions.keys().next_back().unwrap_or(&0)
        };
        self.pin(name, latest)?;
        Ok(latest)
    }

    /// The artifact at a specific version of `name`.
    pub fn get(&self, name: &str, version: u64) -> Result<&ModelArtifact, ServeError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        entry
            .versions
            .get(&version)
            .ok_or(ServeError::UnknownVersion {
                name: name.to_string(),
                version,
            })
    }

    /// The artifact currently serving traffic for `name`.
    pub fn active(&self, name: &str) -> Result<&ModelArtifact, ServeError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        Ok(&entry.versions[&entry.active])
    }

    /// The active version number for `name`.
    pub fn active_version(&self, name: &str) -> Result<u64, ServeError> {
        self.entries
            .get(name)
            .map(|e| e.active)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// The staged (published, not yet promoted) artifact for `name`, if a
    /// rollout is in flight.
    pub fn staged(&self, name: &str) -> Result<Option<&ModelArtifact>, ServeError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        Ok(entry.staged.map(|v| &entry.versions[&v]))
    }

    /// The latest published artifact for `name` regardless of rollout
    /// state.
    pub fn latest(&self, name: &str) -> Result<&ModelArtifact, ServeError> {
        let entry = self
            .entries
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        // A registered name always retains at least one version; guard
        // anyway rather than panic in library code.
        entry
            .versions
            .values()
            .next_back()
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Registered model names, in sorted order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(|s| s.as_str()).collect()
    }

    /// Published versions of `name`, ascending.
    pub fn versions(&self, name: &str) -> Result<Vec<u64>, ServeError> {
        self.entries
            .get(name)
            .map(|e| e.versions.keys().copied().collect())
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Encodes the whole registry — every line's retained versions,
    /// active pointer, and staged version — into one checksummed frame.
    ///
    /// Each artifact is embedded as its own complete frame
    /// ([`ModelArtifact::encode`]), so an artifact extracted from a
    /// snapshot is byte-identical to one written standalone.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_delta(None)
    }

    /// Encodes one frame holding everything in `self` that `base` lacks:
    /// lines whose state changed, with only the versions `base` has not
    /// persisted. With no base this is a full snapshot. Lines identical
    /// in both are omitted entirely.
    fn encode_delta(&self, base: Option<&ModelRegistry>) -> Vec<u8> {
        let lines = self
            .entries
            .iter()
            .filter(|(name, entry)| base.and_then(|b| b.entries.get(*name)) != Some(entry))
            .map(|(name, entry)| {
                let persisted = base.and_then(|b| b.entries.get(name));
                let versions = entry
                    .versions
                    .iter()
                    .filter(|(v, _)| !persisted.is_some_and(|p| p.versions.contains_key(v)))
                    .map(|(&version, artifact)| Version {
                        version,
                        artifact: artifact.encode(),
                    })
                    .collect();
                Line {
                    name: name.clone(),
                    active: entry.active,
                    staged: entry.staged,
                    versions,
                }
            })
            .collect();
        let mut w = Writer::new();
        snapshot::put(&mut w, &Snapshot { lines }, ());
        w.into_frame(REGISTRY_MAGIC, REGISTRY_VERSION)
    }

    /// Decodes a snapshot chain — a full frame optionally followed by
    /// delta frames (see [`ModelRegistry::append_file`]) — verifying each
    /// frame envelope, folding the deltas together, and then checking the
    /// structural invariants [`ModelRegistry::publish`] maintains:
    /// version numbers unique across the chain, active and staged
    /// pointers resolving to retained versions, and one feature dimension
    /// per line.
    pub fn decode(bytes: &[u8]) -> Result<ModelRegistry, ServeError> {
        let mut entries: BTreeMap<String, ModelEntry> = BTreeMap::new();
        let mut offset = 0;
        let mut first = true;
        while offset < bytes.len() {
            let chunk = &bytes[offset..];
            let span = frame_span(chunk);
            let payload = decode_frame(&chunk[..span], REGISTRY_MAGIC, REGISTRY_VERSION)?;
            apply_frame(&mut entries, payload, first)?;
            first = false;
            offset += span;
        }
        for (name, entry) in &entries {
            if !entry.versions.contains_key(&entry.active) {
                return Err(ServeError::Corrupt(format!(
                    "model {name:?} activates missing version {}",
                    entry.active
                )));
            }
            if let Some(s) = entry.staged {
                if !entry.versions.contains_key(&s) {
                    return Err(ServeError::Corrupt(format!(
                        "model {name:?} stages missing version {s}"
                    )));
                }
            }
        }
        Ok(ModelRegistry { entries })
    }

    /// Writes the full snapshot to a file, replacing any existing chain.
    pub fn write_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Persists this registry into `path` incrementally: decodes the
    /// existing snapshot chain and appends one delta frame carrying only
    /// what changed since — newly published versions plus rollout-pointer
    /// moves — leaving the already-persisted bytes untouched.
    ///
    /// Falls back to a full rewrite when the file does not exist or its
    /// persisted state is not a subset of this registry (a retained
    /// version was mutated or belongs to a different history — append
    /// cannot express that). Returns what was done; reading the file back
    /// yields a registry equal to `self` in every case.
    pub fn append_file(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<SnapshotWrite, ServeError> {
        let path = path.as_ref();
        let existing = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.write_file(path)?;
                return Ok(SnapshotWrite::Rewritten);
            }
            Err(e) => return Err(e.into()),
        };
        let base = ModelRegistry::decode(&existing)?;
        if base == *self {
            return Ok(SnapshotWrite::Unchanged);
        }
        if !base.subset_of(self) {
            self.write_file(path)?;
            return Ok(SnapshotWrite::Rewritten);
        }
        let delta = self.encode_delta(Some(&base));
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
        f.write_all(&delta)?;
        Ok(SnapshotWrite::Appended)
    }

    /// True when every artifact version retained in `self` is present and
    /// identical in `other` — i.e. `other` extends `self` by publishes
    /// and pointer moves only, which is what a delta frame can express.
    fn subset_of(&self, other: &ModelRegistry) -> bool {
        self.entries.iter().all(|(name, entry)| {
            other.entries.get(name).is_some_and(|o| {
                entry
                    .versions
                    .iter()
                    .all(|(v, artifact)| o.versions.get(v) == Some(artifact))
            })
        })
    }

    /// Reads and decodes a registry snapshot file (full or chained).
    pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<ModelRegistry, ServeError> {
        ModelRegistry::decode(&std::fs::read(path)?)
    }
}

/// How [`ModelRegistry::append_file`] persisted the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotWrite {
    /// A delta frame was appended past the existing chain.
    Appended,
    /// The file was (re)written as a single full snapshot.
    Rewritten,
    /// The persisted state already matched; nothing was written.
    Unchanged,
}

/// The byte length of the frame starting at `chunk[0]`, from the
/// self-delimiting header. Returns the whole remainder when the header is
/// short or inconsistent so `decode_frame` reports the precise error.
fn frame_span(chunk: &[u8]) -> usize {
    if chunk.len() < HEADER_LEN {
        return chunk.len();
    }
    #[expect(
        clippy::expect_used,
        reason = "an 8-byte slice always converts to [u8; 8]"
    )]
    let payload_len = u64::from_le_bytes(
        chunk[8..16]
            .try_into()
            .expect("an 8-byte slice of a bounds-checked header"),
    );
    usize::try_from(payload_len)
        .ok()
        .and_then(|p| p.checked_add(HEADER_LEN))
        .filter(|&total| total <= chunk.len())
        .unwrap_or(chunk.len())
}

/// One snapshot or delta frame's payload: the model lines it touches.
struct Snapshot {
    lines: Vec<Line>,
}

/// One model line in a frame: its rollout pointers and the versions the
/// frame adds, each a complete embedded artifact frame.
struct Line {
    name: String,
    active: u64,
    staged: Option<u64>,
    versions: Vec<Version>,
}

/// One published version and its encoded artifact.
struct Version {
    version: u64,
    artifact: Vec<u8>,
}

schema! { record snapshot: Snapshot { lines: list(line) } }
schema! {
    record line: Line { name: str16, active: u64, staged: option(u64), versions: list(version) }
}
schema! { record version: Version { version: u64, artifact: blob64 } }

/// Decodes one frame payload and folds it into `entries`. The base frame
/// must introduce each name once; delta frames may revisit a line to move
/// its pointers and add versions, but never to re-publish a version the
/// chain already holds.
fn apply_frame(
    entries: &mut BTreeMap<String, ModelEntry>,
    payload: &[u8],
    is_base: bool,
) -> Result<(), ServeError> {
    let mut r = Reader::new(payload);
    let frame = snapshot::get(&mut r)?;
    r.finish()?;
    for Line {
        name,
        active,
        staged,
        versions,
    } in frame.lines
    {
        if is_base && entries.contains_key(&name) {
            return Err(ServeError::Corrupt(format!(
                "registry repeats model name {name:?}"
            )));
        }
        let entry = entries.entry(name.clone()).or_insert_with(|| ModelEntry {
            versions: BTreeMap::new(),
            active,
            staged,
        });
        entry.active = active;
        entry.staged = staged;
        for Version { version, artifact } in versions {
            let artifact = ModelArtifact::decode(&artifact)?;
            if let Some(first) = entry.versions.values().next() {
                if artifact.dim() != first.dim() {
                    return Err(ServeError::Corrupt(format!(
                        "model {name:?} mixes dimensions {} and {}",
                        first.dim(),
                        artifact.dim()
                    )));
                }
            }
            if entry.versions.insert(version, artifact).is_some() {
                return Err(ServeError::Corrupt(format!(
                    "model {name:?} repeats version {version}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetFingerprint, ModelArtifact};
    use mlstar_core::TrainProvenance;
    use mlstar_glm::GlmModel;
    use mlstar_linalg::DenseVector;

    fn artifact(dim: usize, fill: f64) -> ModelArtifact {
        let model = GlmModel::from_weights(DenseVector::from_vec(vec![fill; dim]));
        let fp = DatasetFingerprint {
            features: dim,
            instances: 10,
            content_hash: 7,
        };
        let prov = TrainProvenance {
            system: "mllib*".to_string(),
            seed: 1,
            rounds_run: 2,
            total_updates: 3,
            converged: true,
            final_objective: Some(0.5),
            host_threads: 4,
        };
        ModelArtifact::new(&model, fp, prov).unwrap()
    }

    #[test]
    fn first_publish_is_active_later_ones_stage() {
        let mut reg = ModelRegistry::new();
        assert_eq!(reg.publish("ctr", artifact(4, 1.0)).unwrap(), 1);
        assert_eq!(reg.active_version("ctr").unwrap(), 1);
        assert!(reg.staged("ctr").unwrap().is_none());

        assert_eq!(reg.publish("ctr", artifact(4, 2.0)).unwrap(), 2);
        assert_eq!(reg.active_version("ctr").unwrap(), 1, "v2 only staged");
        assert_eq!(reg.staged("ctr").unwrap().unwrap().weights().get(0), 2.0);
        assert_eq!(reg.latest("ctr").unwrap().weights().get(0), 2.0);
        assert_eq!(reg.active("ctr").unwrap().weights().get(0), 1.0);

        assert_eq!(reg.promote("ctr").unwrap(), 2);
        assert_eq!(reg.active_version("ctr").unwrap(), 2);
        assert!(reg.staged("ctr").unwrap().is_none());
    }

    #[test]
    fn republish_replaces_staged() {
        let mut reg = ModelRegistry::new();
        reg.publish("m", artifact(2, 1.0)).unwrap();
        reg.publish("m", artifact(2, 2.0)).unwrap();
        reg.publish("m", artifact(2, 3.0)).unwrap();
        assert_eq!(reg.staged("m").unwrap().unwrap().weights().get(0), 3.0);
        assert_eq!(reg.versions("m").unwrap(), vec![1, 2, 3]);
        assert_eq!(
            reg.promote("m").unwrap(),
            3,
            "promote takes the newest stage"
        );
    }

    #[test]
    fn pin_rolls_back_and_forward() {
        let mut reg = ModelRegistry::new();
        reg.publish("m", artifact(2, 1.0)).unwrap();
        reg.publish("m", artifact(2, 2.0)).unwrap();
        reg.promote("m").unwrap();
        reg.pin("m", 1).unwrap();
        assert_eq!(reg.active_version("m").unwrap(), 1);
        assert_eq!(reg.pin_latest("m").unwrap(), 2);
        assert_eq!(reg.active_version("m").unwrap(), 2);
        // Pinning the staged version consumes the stage.
        reg.publish("m", artifact(2, 3.0)).unwrap();
        reg.pin("m", 3).unwrap();
        assert!(reg.staged("m").unwrap().is_none());
        assert!(matches!(
            reg.promote("m"),
            Err(ServeError::NothingStaged(_))
        ));
    }

    #[test]
    fn errors_are_specific() {
        let mut reg = ModelRegistry::new();
        assert!(matches!(
            reg.active("ghost"),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.promote("ghost"),
            Err(ServeError::UnknownModel(_))
        ));
        reg.publish("m", artifact(4, 1.0)).unwrap();
        assert!(matches!(
            reg.get("m", 9),
            Err(ServeError::UnknownVersion { version: 9, .. })
        ));
        assert!(matches!(
            reg.promote("m"),
            Err(ServeError::NothingStaged(_))
        ));
        assert!(matches!(
            reg.publish("m", artifact(5, 1.0)),
            Err(ServeError::DimensionMismatch {
                expected: 4,
                found: 5
            })
        ));
    }

    #[test]
    fn names_are_sorted() {
        let mut reg = ModelRegistry::new();
        reg.publish("zeta", artifact(2, 1.0)).unwrap();
        reg.publish("alpha", artifact(2, 1.0)).unwrap();
        assert_eq!(reg.names(), vec!["alpha", "zeta"]);
    }

    /// A registry mid-rollout: two lines, one with history, an active
    /// pointer rolled back behind the latest version, and a stage in
    /// flight.
    fn populated() -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        reg.publish("ctr", artifact(4, 1.0)).unwrap();
        reg.publish("ctr", artifact(4, 2.0)).unwrap();
        reg.promote("ctr").unwrap();
        reg.publish("ctr", artifact(4, 3.0)).unwrap();
        reg.publish("spam", artifact(2, 9.0)).unwrap();
        reg
    }

    #[test]
    fn snapshot_roundtrip_preserves_rollout_state() {
        let reg = populated();
        let back = ModelRegistry::decode(&reg.encode()).unwrap();
        assert_eq!(reg, back);
        assert_eq!(back.active_version("ctr").unwrap(), 2);
        assert_eq!(back.staged("ctr").unwrap().unwrap().weights().get(0), 3.0);
        assert_eq!(back.versions("ctr").unwrap(), vec![1, 2, 3]);
        assert_eq!(back.active("spam").unwrap().weights().get(0), 9.0);
        // The restored registry keeps working, not just reading.
        let mut back = back;
        assert_eq!(back.promote("ctr").unwrap(), 3);
        assert!(matches!(
            back.publish("spam", artifact(3, 1.0)),
            Err(ServeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_registry_roundtrips() {
        let reg = ModelRegistry::new();
        let back = ModelRegistry::decode(&reg.encode()).unwrap();
        assert!(back.names().is_empty());
    }

    #[test]
    fn snapshot_corruption_is_refused() {
        let encoded = populated().encode();
        // Bit flip inside an embedded artifact → outer checksum catches it.
        let mut flipped = encoded.clone();
        let idx = flipped.len() - 20;
        flipped[idx] ^= 0x40;
        assert!(matches!(
            ModelRegistry::decode(&flipped),
            Err(ServeError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            ModelRegistry::decode(&encoded[..encoded.len() - 3]),
            Err(ServeError::Truncated { .. })
        ));
        let mut wrong_magic = encoded.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            ModelRegistry::decode(&wrong_magic),
            Err(ServeError::BadMagic(_))
        ));
        let mut wrong_version = encoded;
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ModelRegistry::decode(&wrong_version),
            Err(ServeError::VersionMismatch {
                found: 99,
                supported: REGISTRY_VERSION
            })
        ));
    }

    #[test]
    fn snapshot_with_dangling_active_pointer_is_corrupt() {
        // Hand-build a payload whose active pointer names version 5 while
        // only version 1 is retained.
        let mut w = mlstar_codec::Writer::new();
        w.put_u64(1);
        w.put_str16("ctr");
        w.put_u64(5); // active
        w.put_u8(0); // no stage
        w.put_u64(1); // one retained version
        w.put_u64(1);
        w.put_blob64(&artifact(2, 1.0).encode());
        let frame = w.into_frame(REGISTRY_MAGIC, REGISTRY_VERSION);
        match ModelRegistry::decode(&frame) {
            Err(ServeError::Corrupt(msg)) => assert!(msg.contains("missing version 5"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mlstar_serve_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_matches_rewrite_and_preserves_persisted_bytes() {
        let appended = temp_path("chain.mlsr");
        let rewritten = temp_path("full.mlsr");
        std::fs::remove_file(&appended).ok();

        // First persist: no file yet → full snapshot.
        let mut reg = populated();
        assert_eq!(
            reg.append_file(&appended).unwrap(),
            SnapshotWrite::Rewritten
        );
        let base_bytes = std::fs::read(&appended).unwrap();

        // Publish, promote, and add a new line; append the delta.
        reg.promote("ctr").unwrap();
        reg.publish("ctr", artifact(4, 4.0)).unwrap();
        reg.publish("fraud", artifact(8, 1.0)).unwrap();
        assert_eq!(reg.append_file(&appended).unwrap(), SnapshotWrite::Appended);

        // The chain extends — never rewrites — the persisted prefix.
        let chain_bytes = std::fs::read(&appended).unwrap();
        assert!(chain_bytes.len() > base_bytes.len());
        assert_eq!(&chain_bytes[..base_bytes.len()], &base_bytes[..]);

        // Chained file and full rewrite decode to the same registry.
        reg.write_file(&rewritten).unwrap();
        assert_eq!(ModelRegistry::read_file(&appended).unwrap(), reg);
        assert_eq!(
            ModelRegistry::read_file(&appended).unwrap(),
            ModelRegistry::read_file(&rewritten).unwrap()
        );

        std::fs::remove_file(&appended).ok();
        std::fs::remove_file(&rewritten).ok();
    }

    #[test]
    fn append_pointer_move_only_and_unchanged() {
        let path = temp_path("pointers.mlsr");
        std::fs::remove_file(&path).ok();
        let mut reg = populated();
        reg.append_file(&path).unwrap();

        // No change → nothing written.
        let before = std::fs::read(&path).unwrap();
        assert_eq!(reg.append_file(&path).unwrap(), SnapshotWrite::Unchanged);
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // A promote moves pointers without publishing: the delta carries
        // no artifacts but the decoded chain reflects the new rollout.
        reg.promote("ctr").unwrap();
        assert_eq!(reg.append_file(&path).unwrap(), SnapshotWrite::Appended);
        let back = ModelRegistry::read_file(&path).unwrap();
        assert_eq!(back, reg);
        assert_eq!(back.active_version("ctr").unwrap(), 3);
        assert!(back.staged("ctr").unwrap().is_none());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_over_diverged_history_falls_back_to_rewrite() {
        let path = temp_path("diverged.mlsr");
        std::fs::remove_file(&path).ok();
        // Persist a registry whose version 1 differs from ours.
        let mut other = ModelRegistry::new();
        other.publish("ctr", artifact(4, 99.0)).unwrap();
        other.write_file(&path).unwrap();

        let reg = populated();
        assert_eq!(reg.append_file(&path).unwrap(), SnapshotWrite::Rewritten);
        assert_eq!(ModelRegistry::read_file(&path).unwrap(), reg);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn long_append_chain_roundtrips() {
        let path = temp_path("long-chain.mlsr");
        std::fs::remove_file(&path).ok();
        let mut reg = ModelRegistry::new();
        reg.publish("m", artifact(3, 0.0)).unwrap();
        reg.append_file(&path).unwrap();
        for i in 1..6 {
            reg.publish("m", artifact(3, i as f64)).unwrap();
            reg.promote("m").unwrap();
            assert_eq!(reg.append_file(&path).unwrap(), SnapshotWrite::Appended);
        }
        let back = ModelRegistry::read_file(&path).unwrap();
        assert_eq!(back, reg);
        assert_eq!(back.versions("m").unwrap(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(back.active_version("m").unwrap(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_chain_tail_is_refused() {
        let mut reg = populated();
        let mut bytes = reg.encode();
        let base = ModelRegistry::decode(&bytes).unwrap();
        reg.promote("ctr").unwrap();
        reg.publish("ctr", artifact(4, 4.0)).unwrap();
        let delta = reg.encode_delta(Some(&base));
        bytes.extend_from_slice(&delta[..delta.len() - 2]);
        assert!(matches!(
            ModelRegistry::decode(&bytes),
            Err(ServeError::Truncated { .. })
        ));
    }

    #[test]
    fn delta_repeating_a_version_is_corrupt() {
        let reg = populated();
        let mut bytes = reg.encode();
        // A "delta" that republishes version 1 of ctr.
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_str16("ctr");
        w.put_u64(1); // active
        w.put_u8(0);
        w.put_u64(1); // one version
        w.put_u64(1); // ... that already exists
        w.put_blob64(&artifact(4, 5.0).encode());
        bytes.extend_from_slice(&w.into_frame(REGISTRY_MAGIC, REGISTRY_VERSION));
        match ModelRegistry::decode(&bytes) {
            Err(ServeError::Corrupt(msg)) => assert!(msg.contains("repeats version 1"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let dir = std::env::temp_dir().join("mlstar_serve_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("registry.mlsr");
        let reg = populated();
        reg.write_file(&path).unwrap();
        assert_eq!(ModelRegistry::read_file(&path).unwrap(), reg);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            ModelRegistry::read_file(&path),
            Err(ServeError::Io(_))
        ));
    }
}
