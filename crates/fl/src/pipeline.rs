//! The per-client pipeline every runtime shares: one [`ClientStep`]
//! (load the broadcast global, train, apply DP, pick an uplink codec,
//! encode) and one [`decode_upload`] (the FedSZ / `FUC1` / raw dispatch
//! on the receiving side).
//!
//! The in-memory [`RoundEngine`](crate::engine::RoundEngine), `fedsz
//! worker` and `fedsz serve` are thin drivers over these two functions.
//! They differ only in where Eqn 1's inputs come from: the engine prices
//! each client against its virtual
//! [`LinkProfile`](crate::link::LinkProfile), the worker against
//! its measured send bandwidth (both through a [`LinkEstimate`]), and
//! each folds its own codec measurements into the one [`CostProfile`]
//! table of its [`UplinkCodecs`].
//!
//! Every uplink policy resolves to one codec list:
//!
//! | policy | codec list | Eqn 1 |
//! |---|---|---|
//! | `Raw` | empty (always raw) | — |
//! | `Lossy`, `TopK`, `Quant` | that one codec | — (always encodes) |
//! | `Adaptive { Lossy }` | the `Lossy` codec | priced against raw |
//! | `AutoFamily { .. }` | one entry per candidate | priced against raw |
//!
//! Priced lists choose through [`select_family`], which for a
//! one-entry list is exactly the paper's compress-or-not rule: probe
//! until a profile exists, then compress iff `t_C + t_D + S'/B` beats
//! `S/B`.

use crate::codec::{zero_residual, FamilyCodec};
use crate::plan::StagePolicy;
use crate::Client;
use fedsz::timing::{select_family, CostProfile, Eqn1Decision, Eqn1Leg, FamilyCandidate};
use fedsz::FedSz;
use fedsz_codec::CodecError;
use fedsz_dp::{DpOutcome, DpPolicy};
use fedsz_nn::{NnError, StateDict};
use fedsz_telemetry::{Telemetry, Value};
use std::fmt;
use std::time::Instant;

/// One concrete uplink codec.
enum UplinkCodec {
    /// FedSZ error-bounded compression of the absolute state dict.
    Fedsz(FedSz),
    /// A `FUC1` delta stream against the round's broadcast.
    Family(FamilyCodec),
}

/// A validated uplink policy as a codec list plus the EWMA
/// [`CostProfile`] of each codec (see the module table).
pub(crate) struct UplinkCodecs {
    /// Codecs with their reporting names (`lossy`, `topk+ef`, `q8`, …).
    codecs: Vec<(&'static str, UplinkCodec)>,
    /// Measured cost per codec, aligned with `codecs`. Only priced
    /// lists fill it: nothing else reads a profile.
    profiles: Vec<Option<CostProfile>>,
    /// Whether Eqn 1 picks among the codecs and raw each upload.
    priced: bool,
    /// Whether each client carries an error-feedback residual.
    error_feedback: bool,
}

impl UplinkCodecs {
    /// Resolves an upload-leg policy that passed
    /// [`StagePolicy::validate_for`] to its codec list.
    ///
    /// # Panics
    ///
    /// Panics on a policy that is illegal on the uplink (`Lossless`,
    /// or `Adaptive` over anything but `Lossy`).
    pub(crate) fn new(policy: &StagePolicy) -> Self {
        let (entries, priced): (&[StagePolicy], bool) = match policy {
            StagePolicy::Raw => (&[], false),
            StagePolicy::Adaptive { compressed } => {
                (std::slice::from_ref(compressed.as_ref()), true)
            }
            StagePolicy::AutoFamily { candidates } => (candidates, true),
            single => (std::slice::from_ref(single), false),
        };
        let codecs: Vec<(&'static str, UplinkCodec)> = entries
            .iter()
            .map(|entry| {
                let codec = match entry {
                    StagePolicy::Lossy(config) => UplinkCodec::Fedsz(FedSz::new(*config)),
                    StagePolicy::TopK { ratio, .. } => UplinkCodec::Family(
                        FamilyCodec::top_k(*ratio).expect("plan validated the ratio"),
                    ),
                    StagePolicy::Quant { bits, stochastic, .. } => UplinkCodec::Family(
                        FamilyCodec::quant(*bits, *stochastic).expect("plan validated the width"),
                    ),
                    other => panic!("{} is not an uplink codec", other.name()),
                };
                (entry.name(), codec)
            })
            .collect();
        Self {
            profiles: vec![None; codecs.len()],
            codecs,
            priced,
            error_feedback: policy.error_feedback(),
        }
    }

    /// Whether some codec in the list emits `FUC1` delta streams, which
    /// the receiver decodes against the round's broadcast.
    pub(crate) fn emits_fuc1(&self) -> bool {
        self.codecs.iter().any(|(_, codec)| matches!(codec, UplinkCodec::Family(_)))
    }

    /// Whether some codec in the list emits FedSZ streams.
    fn emits_fedsz(&self) -> bool {
        self.codecs.iter().any(|(_, codec)| matches!(codec, UplinkCodec::Fedsz(_)))
    }

    /// Number of codecs in the list.
    pub(crate) fn len(&self) -> usize {
        self.codecs.len()
    }

    /// Eqn 1's pick for one upload of `raw_bytes` over `link`: the
    /// codec index (`None` = raw) and, when a plan was priced, the
    /// `(chosen, raw)` predicted end-to-end seconds.
    fn select(
        &self,
        raw_bytes: usize,
        link: LinkEstimate,
        probe_hint: usize,
    ) -> (Option<usize>, Option<(f64, f64)>) {
        if self.codecs.is_empty() {
            return (None, None);
        }
        if !self.priced {
            return (Some(0), None);
        }
        // Compression runs on the client's hardware, so a straggler's
        // codec-time estimate scales with its slowdown.
        let candidates: Vec<FamilyCandidate> = self
            .codecs
            .iter()
            .zip(&self.profiles)
            .map(|(&(family, _), profile)| FamilyCandidate {
                family,
                profile: profile.map(|p| CostProfile {
                    compress_secs_per_byte: p.compress_secs_per_byte * link.compute_slowdown,
                    ..p
                }),
            })
            .collect();
        let sel = select_family(raw_bytes, link.bandwidth_bps, &candidates, probe_hint);
        let predicted = sel.predicted_choice_secs.zip(sel.predicted_raw_secs);
        (sel.choice, predicted)
    }

    /// Whether the sender must time one decode of codec `idx`'s output
    /// before it can price that codec (a priced list with no profile
    /// yet). Only the worker asks: the engine decodes every upload.
    pub(crate) fn needs_decode_probe(&self, idx: usize) -> bool {
        self.priced && self.profiles[idx].is_none()
    }

    /// Folds one round's uses of codec `idx` into its EWMA profile:
    /// per-byte encode cost and mean ratio from `uses`, per-byte decode
    /// cost from `decompress_secs` (the decode time of those same
    /// uploads) or, when `None`, the previous profile's. A no-op for
    /// unpriced lists and for codecs nobody used.
    pub(crate) fn observe(&mut self, idx: usize, uses: &[CodecUse], decompress_secs: Option<f64>) {
        if !self.priced || uses.is_empty() {
            return;
        }
        let bytes: f64 = uses.iter().map(|u| u.raw_bytes as f64).sum();
        if bytes <= 0.0 {
            return;
        }
        let prev = self.profiles[idx];
        let decompress_secs_per_byte = match decompress_secs {
            Some(secs) => secs / bytes,
            None => prev.map_or(0.0, |p| p.decompress_secs_per_byte),
        };
        let ratio =
            uses.iter().map(|u| u.raw_bytes as f64 / u.payload_bytes.max(1) as f64).sum::<f64>()
                / uses.len() as f64;
        self.profiles[idx] = Some(CostProfile::blend(
            prev,
            CostProfile {
                compress_secs_per_byte: uses.iter().map(|u| u.encode_secs).sum::<f64>() / bytes,
                decompress_secs_per_byte,
                ratio,
            },
        ));
    }
}

/// What Eqn 1 knows about one client's uplink.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkEstimate {
    /// Uplink bandwidth in bits/s (`None` before any estimate exists).
    pub bandwidth_bps: Option<f64>,
    /// Multiplier on the client's codec time (1.0 = reference speed).
    pub compute_slowdown: f64,
}

/// One client's round, fixed per round and shared by the whole cohort.
pub(crate) struct ClientStep<'a> {
    /// The round being trained.
    pub round: usize,
    /// Local epochs per round.
    pub epochs: usize,
    /// The run seed (the stochastic quantizer's dither derives from it).
    pub seed: u64,
    /// The plan's DP stage, applied before any codec.
    pub dp: Option<&'a DpPolicy>,
    /// The uplink codec list and its cost profiles.
    pub codecs: &'a UplinkCodecs,
}

/// What one [`ClientStep::run`] produced.
pub(crate) struct ClientUpload {
    /// The client id.
    pub id: usize,
    /// The encoded update (taken when it moves onto the wire).
    pub payload: Vec<u8>,
    /// Index of the codec used (`None` = raw dict bytes).
    pub codec: Option<usize>,
    /// Sizes and encode time of `payload`.
    pub cost: CodecUse,
    /// The client's local sample count.
    pub samples: usize,
    /// Seconds of local training.
    pub train_secs: f64,
    /// What the DP stage did (`None` without a DP policy).
    pub dp: Option<DpOutcome>,
    /// The uplink Eqn-1 record for this upload.
    pub decision: Eqn1Decision,
}

/// One measured encode, as [`UplinkCodecs::observe`] folds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodecUse {
    /// Serialized size of the (noised) update before encoding.
    pub raw_bytes: usize,
    /// Encoded size in bytes.
    pub payload_bytes: usize,
    /// Seconds spent encoding (raw serialization included).
    pub encode_secs: f64,
}

impl ClientStep<'_> {
    /// Runs `client`'s round against the broadcast `global` it
    /// received: load, train, DP, codec choice over `link`, encode.
    /// `residual` is the client's error-feedback state, kept by the
    /// caller across rounds (untouched unless the policy carries EF).
    ///
    /// # Errors
    ///
    /// Returns the [`NnError`] when `global` does not fit the model.
    ///
    /// # Panics
    ///
    /// Panics when training produced non-finite weights (no codec can
    /// encode them).
    pub(crate) fn run(
        &self,
        client: &mut Client,
        global: &StateDict,
        residual: &mut StateDict,
        link: LinkEstimate,
    ) -> Result<ClientUpload, NnError> {
        let id = client.id();
        client.load_global(global)?;
        let t0 = Instant::now();
        for _ in 0..self.epochs {
            client.train_epoch();
        }
        let train_secs = t0.elapsed().as_secs_f64();
        let mut update = client.update();
        // DP runs before any codec: the uplink must compress the
        // *noised* delta, or the privacy/bytes trade-off is
        // unmeasurable. The clip/noise reference is the exact dict this
        // client loaded, the same base the delta codecs encode against.
        let dp = self.dp.map(|policy| apply_dp(&mut update, global, policy, self.round, id));
        let raw_bytes = update.byte_size();
        let hint = self.round.wrapping_mul(self.codecs.len().max(1)).wrapping_add(id);
        let (codec, predicted) = self.codecs.select(raw_bytes, link, hint);
        let t1 = Instant::now();
        let payload = match codec {
            None => update.to_bytes(),
            Some(idx) => match &self.codecs.codecs[idx].1 {
                UplinkCodec::Fedsz(f) => f.compress(&update).expect("finite weights").into_bytes(),
                // The delta reference is the exact dict this client
                // loaded; the receiver decodes against the same
                // broadcast, so the bases agree.
                UplinkCodec::Family(c) => {
                    if self.codecs.error_feedback && residual.is_empty() {
                        *residual = zero_residual(&update);
                    }
                    let residual = self.codecs.error_feedback.then_some(residual);
                    let dither = derive_dither_seed(self.seed, self.round, id);
                    c.encode_delta(&update, global, residual, dither).expect("finite weights")
                }
            },
        };
        let encode_secs = t1.elapsed().as_secs_f64();
        let compressed = codec.is_some();
        Ok(ClientUpload {
            id,
            cost: CodecUse { raw_bytes, payload_bytes: payload.len(), encode_secs },
            payload,
            codec,
            samples: client.samples(),
            train_secs,
            dp,
            decision: Eqn1Decision {
                leg: Eqn1Leg::Uplink,
                node: id as u64,
                compressed,
                family: codec.map_or("raw", |idx| self.codecs.codecs[idx].0),
                predicted_compressed_secs: predicted.map(|p| p.0),
                predicted_raw_secs: predicted.map(|p| p.1),
                measured_codec_secs: if compressed { encode_secs } else { 0.0 },
            },
        })
    }
}

/// Why an upload payload could not be decoded.
#[derive(Debug)]
pub(crate) enum UploadError {
    /// A codec stream the plan's uplink policy never emits.
    UnexpectedCodec(&'static str),
    /// A `FUC1` delta stream with no broadcast reference to decode it
    /// against.
    NoReference,
    /// The payload is truncated or corrupt.
    Codec(CodecError),
}

impl fmt::Display for UploadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UploadError::UnexpectedCodec(kind) => {
                write!(f, "{kind} payload, but the uplink policy never emits {kind}")
            }
            UploadError::NoReference => write!(f, "FUC1 payload without a broadcast reference"),
            UploadError::Codec(e) => write!(f, "{e}"),
        }
    }
}

/// Decodes one upload: raw dict bytes, a `FUC1` delta stream against
/// `reference` (the round's broadcast as the sender received it), or a
/// self-describing FedSZ stream. Only codecs `codecs` can emit are
/// accepted.
///
/// # Errors
///
/// Returns an [`UploadError`] for a codec the policy never emits, a
/// missing reference, or a malformed payload.
pub(crate) fn decode_upload(
    payload: &[u8],
    compressed: bool,
    codecs: &UplinkCodecs,
    reference: Option<&StateDict>,
) -> Result<StateDict, UploadError> {
    if !compressed {
        return StateDict::from_bytes(payload).map_err(UploadError::Codec);
    }
    if FamilyCodec::is_family_stream(payload) {
        if !codecs.emits_fuc1() {
            return Err(UploadError::UnexpectedCodec("FUC1"));
        }
        let reference = reference.ok_or(UploadError::NoReference)?;
        FamilyCodec::decode_delta(payload, reference).map_err(UploadError::Codec)
    } else if codecs.emits_fedsz() {
        FedSz::decompress_with_config(payload).map(|(dict, _)| dict).map_err(UploadError::Codec)
    } else {
        Err(UploadError::UnexpectedCodec("FedSZ"))
    }
}

/// Derives the per-(round, client) dither seed for stochastic
/// quantization from the run seed. Distinct inputs land in distinct
/// seeds, and the same run replays the same dither: rounding noise is
/// reproducible, not fresh entropy.
fn derive_dither_seed(seed: u64, round: usize, client: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((round as u64) << 20)
        .wrapping_add(client as u64)
}

/// Applies the plan's DP stage to `update` in place, against the exact
/// `reference` dict the client loaded this round (the same base the
/// delta codecs use): the delta `update - reference` is clipped to the
/// policy's L2 norm, noised with the `(seed, round, client)`-derived
/// stream, and re-based onto `reference`.
///
/// # Panics
///
/// Panics when `reference` is missing a tensor `update` carries.
fn apply_dp(
    update: &mut StateDict,
    reference: &StateDict,
    policy: &DpPolicy,
    round: usize,
    client: usize,
) -> DpOutcome {
    for (name, t) in update.iter_mut() {
        let base = reference.get(name).expect("reference dict matches the update");
        for (v, &b) in t.data_mut().iter_mut().zip(base.data()) {
            *v -= b;
        }
    }
    let mut chunks: Vec<&mut [f32]> = update.iter_mut().map(|(_, t)| t.data_mut()).collect();
    let outcome = policy.apply(&mut chunks, round as u64, client as u64);
    drop(chunks);
    for (name, t) in update.iter_mut() {
        let base = reference.get(name).expect("reference dict matches the update");
        for (v, &b) in t.data_mut().iter_mut().zip(base.data()) {
            *v += b;
        }
    }
    outcome
}

/// Writes one `eqn1.decision` instant event; absent predictions render
/// as `null` in the trace (the NaN encoding of the trace writer).
pub(crate) fn emit_eqn1(telemetry: &Telemetry, d: &Eqn1Decision) {
    telemetry.event(
        "eqn1.decision",
        &[
            ("leg", Value::Str(d.leg.name())),
            ("node", Value::U64(d.node)),
            ("compressed", Value::Bool(d.compressed)),
            ("family", Value::Str(d.family)),
            (
                "predicted_compressed_secs",
                Value::F64(d.predicted_compressed_secs.unwrap_or(f64::NAN)),
            ),
            ("predicted_raw_secs", Value::F64(d.predicted_raw_secs.unwrap_or(f64::NAN))),
            ("measured_codec_secs", Value::F64(d.measured_codec_secs)),
        ],
    );
}

/// Writes one `dp.noise` instant event for a noised client update.
pub(crate) fn emit_dp_noise(telemetry: &Telemetry, round: usize, client: usize, dp: &DpOutcome) {
    telemetry.event(
        "dp.noise",
        &[
            ("round", Value::U64(round as u64)),
            ("client", Value::U64(client as u64)),
            ("pre_norm", Value::F64(dp.pre_norm)),
            ("sigma", Value::F64(dp.sigma)),
            ("clipped", Value::Bool(dp.clipped)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz::FedSzConfig;
    use fedsz_tensor::Tensor;

    fn lossy() -> StagePolicy {
        StagePolicy::Lossy(FedSzConfig::default())
    }

    fn topk() -> StagePolicy {
        StagePolicy::TopK { ratio: 1.0, error_feedback: false }
    }

    #[test]
    fn every_uplink_policy_resolves_to_one_codec_list() {
        let raw = UplinkCodecs::new(&StagePolicy::Raw);
        assert_eq!(raw.len(), 0);
        let unit = LinkEstimate { bandwidth_bps: Some(1e6), compute_slowdown: 1.0 };
        assert_eq!(raw.select(100, unit, 0), (None, None), "raw never encodes");
        for fixed in [lossy(), topk()] {
            let codecs = UplinkCodecs::new(&fixed);
            assert_eq!(codecs.len(), 1);
            assert_eq!(codecs.select(100, unit, 0), (Some(0), None), "{fixed:?} always encodes");
            assert!(!codecs.needs_decode_probe(0), "unpriced lists keep no profile");
        }
        assert!(UplinkCodecs::new(&topk()).emits_fuc1());
        assert!(!UplinkCodecs::new(&lossy()).emits_fuc1());
        let adaptive = UplinkCodecs::new(&StagePolicy::Adaptive { compressed: Box::new(lossy()) });
        assert_eq!((adaptive.len(), adaptive.codecs[0].0), (1, "lossy"));
        assert!(adaptive.needs_decode_probe(0), "a priced codec probes until profiled");
        let auto =
            UplinkCodecs::new(&StagePolicy::AutoFamily { candidates: vec![lossy(), topk()] });
        assert_eq!(auto.len(), 2);
        assert!(auto.emits_fuc1() && auto.emits_fedsz());
    }

    #[test]
    fn priced_lists_fold_costs_and_price_against_raw() {
        let mut codecs =
            UplinkCodecs::new(&StagePolicy::Adaptive { compressed: Box::new(lossy()) });
        let fast = LinkEstimate { bandwidth_bps: Some(1e12), compute_slowdown: 1.0 };
        let slow = LinkEstimate { bandwidth_bps: Some(1e6), compute_slowdown: 1.0 };
        // Unprofiled: probe (compress) without a prediction.
        assert_eq!(codecs.select(1_000_000, fast, 0), (Some(0), None));
        let use_ = CodecUse { raw_bytes: 1_000_000, payload_bytes: 100_000, encode_secs: 0.01 };
        codecs.observe(0, &[use_], Some(0.01));
        assert!(!codecs.needs_decode_probe(0));
        // 1 MB at 10x: terabit links send raw, megabit links compress.
        let (choice, predicted) = codecs.select(1_000_000, fast, 0);
        assert_eq!(choice, None);
        assert!(predicted.is_some_and(|(chosen, raw)| chosen > raw));
        assert_eq!(codecs.select(1_000_000, slow, 0).0, Some(0));
        // `None` carries the previous decode cost forward.
        codecs.observe(0, &[use_], None);
        let profile = codecs.profiles[0].expect("profiled");
        assert!((profile.decompress_secs_per_byte - 1e-8).abs() < 1e-20);
        assert!((profile.ratio - 10.0).abs() < 1e-12);
    }

    #[test]
    fn decode_upload_accepts_only_what_the_policy_emits() {
        let mut reference = StateDict::new();
        reference.insert("w", Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]));
        let mut update = reference.clone();
        update.get_mut("w").unwrap().data_mut().copy_from_slice(&[2.0, 2.5, 3.0, 4.0]);
        let fuc1 = FamilyCodec::top_k(1.0).unwrap().encode_delta(&update, &reference, None, 0);
        let fuc1 = fuc1.unwrap();
        let fsz1 = FedSz::default().compress(&update).unwrap().into_bytes();
        let (raw, fam, fsz) = (
            UplinkCodecs::new(&StagePolicy::Raw),
            UplinkCodecs::new(&topk()),
            UplinkCodecs::new(&lossy()),
        );

        // Raw bytes decode under any policy.
        assert_eq!(decode_upload(&update.to_bytes(), false, &raw, None).unwrap(), update);
        // FUC1 decodes against the reference, bit-exactly at ratio 1.
        assert_eq!(decode_upload(&fuc1, true, &fam, Some(&reference)).unwrap(), update);
        assert!(matches!(decode_upload(&fuc1, true, &fam, None), Err(UploadError::NoReference)));
        assert!(matches!(
            decode_upload(&fuc1, true, &fsz, Some(&reference)),
            Err(UploadError::UnexpectedCodec("FUC1"))
        ));
        // FedSZ streams are self-describing, but only a FedSZ policy
        // accepts them.
        assert_eq!(decode_upload(&fsz1, true, &fsz, None).unwrap().len(), 1);
        assert!(matches!(
            decode_upload(&fsz1, true, &fam, Some(&reference)),
            Err(UploadError::UnexpectedCodec("FedSZ"))
        ));
        // Corrupt bytes are a typed error, never a panic.
        assert!(matches!(decode_upload(&[9, 9, 9], true, &fsz, None), Err(UploadError::Codec(_))));
        assert!(matches!(decode_upload(&[9, 9, 9], false, &raw, None), Err(UploadError::Codec(_))));
    }
}
