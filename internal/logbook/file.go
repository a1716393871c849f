package logbook

import "os"

// The logbook doubles as the forensic record of chaos and fault runs, so
// the file-writing path must survive the process being killed right after
// it returns: the data is fsynced before close, and a failed close (the
// write-back error surfacing late on some filesystems) is propagated
// instead of swallowed.

// WriteTextFile writes the human-readable log to path, fsyncs, and
// closes, propagating the first error from any stage.
func (b *Book) WriteTextFile(path string) (err error) {
	f, cerr := os.Create(path)
	if cerr != nil {
		return cerr
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if err = b.WriteText(f); err != nil {
		return err
	}
	return f.Sync()
}
