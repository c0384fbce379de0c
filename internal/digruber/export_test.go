package digruber

import "digruber/internal/grid"

// ScheduleExcluding lets the promise checker re-plan a job as
// SelectSite does and read the whole decision, not just its site.
func (c *Client) ScheduleExcluding(j *grid.Job, excluded map[string]bool) Decision {
	return c.scheduleExcluding(j, excluded)
}
