//! Error type for the serving subsystem.

use std::fmt;

/// Errors produced by the artifact codec, the registry, and the scoring
/// engine.
#[derive(Debug)]
pub enum ServeError {
    /// The artifact does not start with [`crate::ARTIFACT_MAGIC`].
    BadMagic(u32),
    /// The artifact was written by an incompatible codec version.
    VersionMismatch {
        /// Version found in the artifact header.
        found: u32,
        /// Version this codec supports.
        supported: u32,
    },
    /// The artifact is shorter than its header declares.
    Truncated {
        /// Bytes expected.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the stored one (bit rot, a
    /// flipped byte, or a hand-edited file).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The artifact declares a zero-dimensional model, which cannot score
    /// anything.
    EmptyModel,
    /// The payload is structurally invalid (bad UTF-8, impossible counts).
    Corrupt(String),
    /// The registry has no model under this name.
    UnknownModel(String),
    /// No staged version exists to promote.
    NothingStaged(String),
    /// An artifact's feature dimension disagrees with the one already
    /// registered under the name, or a query row disagrees with the model.
    DimensionMismatch {
        /// Dimension expected (registered / model).
        expected: usize,
        /// Dimension found (published artifact / query row).
        found: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadMagic(m) => write!(f, "bad artifact magic {m:#010x}"),
            ServeError::VersionMismatch { found, supported } => {
                write!(f, "artifact codec version {found} (supported: {supported})")
            }
            ServeError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated artifact: expected {expected} bytes, got {actual}"
                )
            }
            ServeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            ServeError::EmptyModel => write!(f, "artifact declares a zero-dimensional model"),
            ServeError::Corrupt(msg) => write!(f, "corrupt artifact payload: {msg}"),
            ServeError::UnknownModel(name) => write!(f, "no model named {name:?} in registry"),
            ServeError::NothingStaged(name) => {
                write!(f, "model {name:?} has no staged version to promote")
            }
            ServeError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<mlstar_codec::CodecError> for ServeError {
    fn from(e: mlstar_codec::CodecError) -> Self {
        use mlstar_codec::CodecError as C;
        match e {
            C::BadMagic(m) => ServeError::BadMagic(m),
            C::VersionMismatch { found, supported } => {
                ServeError::VersionMismatch { found, supported }
            }
            C::Truncated { expected, actual } => ServeError::Truncated { expected, actual },
            C::ChecksumMismatch { stored, computed } => {
                ServeError::ChecksumMismatch { stored, computed }
            }
            C::Corrupt(msg) => ServeError::Corrupt(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(ServeError::BadMagic(7).to_string().contains("magic"));
        let e = ServeError::VersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = ServeError::Truncated {
            expected: 100,
            actual: 3,
        };
        assert!(e.to_string().contains("100"));
        let e = ServeError::ChecksumMismatch {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(ServeError::EmptyModel
            .to_string()
            .contains("zero-dimensional"));
        assert!(ServeError::UnknownModel("ctr".into())
            .to_string()
            .contains("ctr"));
        assert!(ServeError::NothingStaged("ctr".into())
            .to_string()
            .contains("staged"));
        let e = ServeError::DimensionMismatch {
            expected: 10,
            found: 4,
        };
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn codec_errors_map_one_to_one() {
        use mlstar_codec::CodecError as C;
        assert!(matches!(
            ServeError::from(C::BadMagic(7)),
            ServeError::BadMagic(7)
        ));
        assert!(matches!(
            ServeError::from(C::VersionMismatch {
                found: 9,
                supported: 2
            }),
            ServeError::VersionMismatch {
                found: 9,
                supported: 2
            }
        ));
        assert!(matches!(
            ServeError::from(C::Truncated {
                expected: 24,
                actual: 3
            }),
            ServeError::Truncated {
                expected: 24,
                actual: 3
            }
        ));
        assert!(matches!(
            ServeError::from(C::ChecksumMismatch {
                stored: 1,
                computed: 2
            }),
            ServeError::ChecksumMismatch {
                stored: 1,
                computed: 2
            }
        ));
        assert!(matches!(
            ServeError::from(C::Corrupt("x".into())),
            ServeError::Corrupt(_)
        ));
    }
}
