package qcache

// SetOnJoin installs the hook DoContext calls when a caller has joined an
// in-flight evaluation and is about to wait for it, so tests can order
// their steps on that event.
func (c *Cache) SetOnJoin(f func()) { c.onJoin = f }
