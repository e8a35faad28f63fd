"""Seeded synthetic MED corpus.

Every draw flows from one root seed through `mmsparse.rng.make_rng`, so the
same seed always gives the same corpus. The corpus plants what the paper's
arms need in order to rank differently:

* per-event audio textures, synthesised at 22050 Hz: band-limited noise
  whose spectral envelope is specific to an audio class, plus a class tone
  with an amplitude modulation;
* per-event video feature clusters: each frame descriptor is its video
  class centre plus Gaussian noise;
* one event, the last, that is separable only jointly: it reuses the audio
  class of event 0 and the video class of event 1, so neither modality
  alone tells it apart from both of them;
* scene cuts in the frame colour histograms at known frame positions, which
  the keyframe detector must find.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from mmsparse.media import AudioClip, FrameHistogram
from mmsparse.rng import make_rng

SAMPLE_RATE_HZ = 22050
HIST_BINS = 64
# The event prototypes are the same for every corpus seed: the seed draws
# clips from fixed events, so the work and the quality of a run do not hinge
# on a handful of per-seed prototype draws.
PROTOTYPE_SEED = 0


N_EVENTS = 6
AUDIO_S = 0.1  # seconds of audio per clip
N_FRAMES = 30  # video frames per clip
VIDEO_DIM = 24  # frame descriptor size
CUTS_PER_CLIP = 2
VIDEO_NOISE = 0.4  # std of the descriptor noise around its class centre
AUDIO_SNR = 8.0


@dataclass(frozen=True)
class Clip:
    clip_id: str
    event: str
    audio: np.ndarray  # mono samples at SAMPLE_RATE_HZ
    frames: Tuple[FrameHistogram, ...]
    video: np.ndarray  # (n_frames, video_dim) frame descriptors
    cuts: Tuple[int, ...]  # frame positions where a new scene starts
    fps: float

    def audio_clip(self) -> AudioClip:
        return AudioClip(samples=self.audio, sample_rate_hz=SAMPLE_RATE_HZ)


def event_classes() -> List[Tuple[int, int]]:
    """(audio class, video class) per event; the last event pairs the audio
    class of event 0 with the video class of event 1."""
    classes = [(e, e) for e in range(N_EVENTS - 1)]
    classes.append((0, 1))
    return classes


def event_name(e: int) -> str:
    return f"e{e}"


class _Textures:
    """Class-level audio and video prototypes shared by every clip."""

    def __init__(self):
        n_classes = N_EVENTS - 1
        rng = make_rng(PROTOTYPE_SEED, "corpus", "prototypes")
        nyq = SAMPLE_RATE_HZ / 2.0
        # audio: spectral envelopes peaking in separate octave-spaced bands
        edges = np.geomspace(200.0, 0.8 * nyq, n_classes + 1)
        self.bands = []
        self.tones = []
        self.mod_hz = []
        for k in range(n_classes):
            lo, hi = edges[k], edges[k + 1]
            self.bands.append((lo, hi))
            self.tones.append(float(rng.uniform(lo, hi)))
            self.mod_hz.append(float(rng.uniform(4.0, 16.0)))
        # video: well separated cluster centres
        centres = rng.standard_normal((n_classes, VIDEO_DIM))
        centres /= np.linalg.norm(centres, axis=1, keepdims=True)
        self.centres = 3.0 * centres


def _audio(rng, tex: _Textures, k: int) -> np.ndarray:
    n = int(round(AUDIO_S * SAMPLE_RATE_HZ))
    t = np.arange(n) / SAMPLE_RATE_HZ
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / SAMPLE_RATE_HZ)
    lo, hi = tex.bands[k]
    shaped = np.fft.irfft(spectrum * ((freqs >= lo) & (freqs < hi)), n=n)
    shaped /= np.std(shaped) + 1e-12
    tone = np.sin(2 * np.pi * tex.tones[k] * (1.0 + 0.01 * rng.standard_normal()) * t
                  + rng.uniform(0, 2 * np.pi))
    envelope = 1.0 + 0.5 * np.sin(2 * np.pi * tex.mod_hz[k] * t + rng.uniform(0, 2 * np.pi))
    signal = envelope * (shaped + tone)
    noise = rng.standard_normal(n) * np.std(signal) / AUDIO_SNR
    gain = 10.0 ** rng.uniform(-1.5, -0.5)
    return gain * (signal + noise)


def _frames(rng, fps: float):
    margin = 4
    cuts = np.sort(rng.choice(np.arange(margin, N_FRAMES - margin),
                              size=CUTS_PER_CLIP, replace=False))
    # cuts at least two frames apart so each one is its own scene
    while np.any(np.diff(cuts) < 3):
        cuts = np.sort(rng.choice(np.arange(margin, N_FRAMES - margin),
                                  size=CUTS_PER_CLIP, replace=False))
    frames = []
    scene = rng.dirichlet(np.full(HIST_BINS, 2.0))
    for i in range(N_FRAMES):
        if i in cuts:
            scene = rng.dirichlet(np.full(HIST_BINS, 2.0))
        jitter = 1.0 + 0.01 * rng.standard_normal(HIST_BINS)
        counts = np.round(10000.0 * scene * np.abs(jitter)) + 1.0
        frames.append(FrameHistogram(counts=counts, frame_index=i, timestamp_s=i / fps))
    return tuple(frames), tuple(int(c) for c in cuts)


def make_clip(seed: int, tex: _Textures, split: str, index: int, event: int) -> Clip:
    rng = make_rng(seed, "corpus", split, index)
    ka, kv = event_classes()[event]
    fps = N_FRAMES / AUDIO_S
    frames, cuts = _frames(rng, fps)
    video = tex.centres[kv] + VIDEO_NOISE * rng.standard_normal((N_FRAMES, VIDEO_DIM))
    return Clip(
        clip_id=f"{split}-{index:05d}",
        event=event_name(event),
        audio=_audio(rng, tex, ka),
        frames=frames,
        video=video,
        cuts=cuts,
        fps=fps,
    )


def make_split(seed: int, split: str, per_event: int) -> List[Clip]:
    """`per_event` clips of every event, interleaved by event."""
    tex = _Textures()
    return [
        make_clip(seed, tex, split, i * N_EVENTS + e, e)
        for i in range(per_event)
        for e in range(N_EVENTS)
    ]
