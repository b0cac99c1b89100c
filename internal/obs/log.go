package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Logger is the pipeline's structured logger: a thin wrapper over
// log/slog that follows the package's cardinal rule — every method is a
// no-op on a nil receiver, so library code logs unconditionally and
// un-instrumented runs pay a single pointer test per call site. Like
// spans and metrics, logging never touches a random stream or feeds back
// into the pipeline, so output is byte-identical with logging on or off.
type Logger struct {
	s *slog.Logger
}

// Log levels accepted by NewLogger, in increasing severity.
const (
	LevelDebug = "debug"
	LevelInfo  = "info"
	LevelWarn  = "warn"
	LevelError = "error"
)

// Log formats accepted by NewLogger.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// ParseLevel maps a -log-level flag value to its slog level.
func ParseLevel(level string) (slog.Level, error) {
	switch strings.ToLower(level) {
	case LevelDebug:
		return slog.LevelDebug, nil
	case LevelInfo:
		return slog.LevelInfo, nil
	case LevelWarn:
		return slog.LevelWarn, nil
	case LevelError:
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want %s|%s|%s|%s)",
			level, LevelDebug, LevelInfo, LevelWarn, LevelError)
	}
}

// NewLogger returns a logger writing structured records to w at the given
// minimum level ("debug", "info", "warn", "error") and format ("text" or
// "json" — one JSON object per line, the CI-friendly form).
func NewLogger(w io.Writer, level, format string) (*Logger, error) {
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case FormatText:
		h = slog.NewTextHandler(w, opts)
	case FormatJSON:
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want %s|%s)", format, FormatText, FormatJSON)
	}
	return &Logger{s: slog.New(h)}, nil
}

// Debug emits a debug-level record.
func (l *Logger) Debug(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Debug(msg, args...)
}

// Info emits an info-level record.
func (l *Logger) Info(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Info(msg, args...)
}

// Warn emits a warn-level record.
func (l *Logger) Warn(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Warn(msg, args...)
}

// Error emits an error-level record.
func (l *Logger) Error(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Error(msg, args...)
}
