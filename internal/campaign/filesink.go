// filesink.go publishes sink output atomically: a FileSink streams into
// <path>.partial and renames it to <path> only when the campaign completes
// cleanly (Close). A crashed or cancelled run leaves the .partial file in
// place — inspectable, obviously unfinished, and never mistaken by
// downstream tooling (plotters, diffing, the golden corpus) for a
// completed result file.
package campaign

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/experiment"
)

// FileSink wraps an inner sink, directing its output to path+".partial"
// and renaming to path on successful Close.
type FileSink struct {
	inner Sink
	f     *os.File
	path  string
}

// PartialSuffix is appended to a FileSink's path while the run is in
// flight; Close removes it by renaming.
const PartialSuffix = ".partial"

// NewFileSink creates path+".partial" (truncating any previous attempt)
// and wraps the sink that build constructs over it. It refuses a path that
// exists and is not a regular file, such as a directory, a device, a FIFO
// or a symbolic link: Close's rename would replace it with the finished
// file. A link is refused even when it points at a regular file, because
// the rename replaces the link, not its target; hence Lstat.
func NewFileSink(path string, build func(io.Writer) Sink) (*FileSink, error) {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("campaign: %s exists and is not a regular file", path)
	}
	f, err := os.OpenFile(path+PartialSuffix, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: create %s%s: %w", path, PartialSuffix, err)
	}
	return &FileSink{inner: build(f), f: f, path: path}, nil
}

// Begin delegates to the inner sink.
func (s *FileSink) Begin(c *Campaign) error { return s.inner.Begin(c) }

// Point delegates to the inner sink.
func (s *FileSink) Point(p Point, res experiment.Result) error { return s.inner.Point(p, res) }

// Aggregate delegates to the inner sink.
func (s *FileSink) Aggregate(p Point, agg Aggregate) error { return s.inner.Aggregate(p, agg) }

// Close finalizes: flush the inner sink, make the bytes durable, and
// publish the finished file under its real name. Only a clean completion
// reaches the rename, so the existence of <path> certifies a full run.
func (s *FileSink) Close() error {
	if err := s.inner.Close(); err != nil {
		s.f.Close()
		return err
	}
	//repolint:allow detsource publishing the output is a durability barrier: the rename must not make bytes visible that are not yet on stable storage
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("sync %s%s: %w", s.path, PartialSuffix, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("close %s%s: %w", s.path, PartialSuffix, err)
	}
	if err := os.Rename(s.path+PartialSuffix, s.path); err != nil {
		return fmt.Errorf("publish %s: %w", s.path, err)
	}
	return nil
}

// Abort flushes the inner sink and closes the file but does NOT rename:
// the .partial file stays behind as the interrupted run's residue.
func (s *FileSink) Abort() error {
	err := s.inner.Abort()
	if cerr := s.f.Close(); cerr != nil {
		err = errors.Join(err, fmt.Errorf("close %s%s: %w", s.path, PartialSuffix, cerr))
	}
	return err
}
